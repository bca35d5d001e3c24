// Byte goldens for the formats no other test pins bit for bit: one
// ETLCKPT1 recovery checkpoint, one ETLPLAN1 plan and the ETLPLNS1 file
// that holds it, and ExecutionInputFingerprint over a fixed input. Each
// is built by hand from fixed values (every cell type, -0.0, NaN and
// infinity included), so a codec change that moves one byte shows up as
// a golden diff. A line reads "<FNV-64 of the bytes> <byte count>".

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <limits>
#include <string>

#include "common/string_util.h"
#include "engine/recovery.h"
#include "io/plan_format.h"

namespace etlopt {
namespace {

std::string Line(const std::string& bytes) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 " %zu", Fnv1a64(bytes),
                bytes.size());
  return buf;
}

std::vector<Record> Rows() {
  return {
      Record({Value::Int(-7), Value::Double(-0.0),
              Value::String(std::string("a\0b", 3))}),
      Record({Value::Null(), Value::Bool(true),
              Value::Double(std::numeric_limits<double>::quiet_NaN())}),
      Record({Value::Int(int64_t{1} << 40),
              Value::Double(std::numeric_limits<double>::infinity()),
              Value::String("")}),
  };
}

OptimizedPlan Plan() {
  OptimizedPlan plan;
  plan.algorithm = "hs";
  plan.cost_model = "linlog(sk_setup=0,agg_setup=0)";
  plan.options = "max_states=300";
  plan.merges = "a+b";
  plan.initial_cost = 45852;
  plan.best_cost = 30000.125;
  plan.signature_hash = 0x1f2e3d4c5b6a7988ULL;
  plan.visited_states = 1234;
  plan.exhausted = true;
  plan.path = {{TransitionRecord::Kind::kSwap, "SWA(sel0,nn0)"},
               {TransitionRecord::Kind::kFactorize, "FAC(u1)"}};
  plan.initial_text = "recordset S\n";
  plan.optimized_text = "recordset T\n";
  plan.recovery.enabled = true;
  plan.recovery.labels = {"2", "5"};
  plan.recovery.execution_cost = 75.5;
  plan.recovery.checkpoint_cost = 11.9;
  plan.recovery.expected_recovery_cost = 0.25;
  plan.recovery.expected_total_cost = 87.65;
  plan.recovery.failure_rate_per_cost = 1e-3;
  plan.recovery.stream_checkpoint_unit_cost = 3.0;
  plan.recovery.rationale = "placed";
  return plan;
}

TEST(ByteGoldenTest, CheckpointBytes) {
  Checkpoint checkpoint;
  checkpoint.workflow_hash = 0x0123456789abcdefULL;
  checkpoint.input_hash = 0xfedcba9876543210ULL;
  checkpoint.node = 7;
  checkpoint.rows = Rows();
  checkpoint.rows_out = {{1, 3}, {7, 2}};
  EXPECT_EQ(Line(SerializeCheckpoint(checkpoint)), "75004781a46e50b1 153");
}

TEST(ByteGoldenTest, PlanBytes) {
  OptimizedPlan legacy = Plan();
  legacy.recovery = RecoveryPointPlan{};
  EXPECT_EQ(Line(SerializePlanBinary(Plan())), "0818840fc6655b02 245");
  EXPECT_EQ(Line(SerializePlansBinary({legacy, Plan()})),
            "53342f4ae56a1acc 461");
}

TEST(ByteGoldenTest, InputFingerprint) {
  ExecutionInput input;
  input.source_data["S"] = Rows();
  input.source_data["empty"] = {};
  input.context.lookups["L"].emplace(
      std::vector<Value>{Value::String("k"), Value::Int(1)}, Value::Int(10));
  input.context.lookups["L"].emplace(std::vector<Value>{Value::Double(2.5)},
                                     Value::Int(11));
  EXPECT_EQ(ExecutionInputFingerprint(input), 0xca686327e05d4dceULL);
}

}  // namespace
}  // namespace etlopt
