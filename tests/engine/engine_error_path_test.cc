// Error paths, table-driven over every engine: the serial reference,
// vectorized at one, two and four threads, the recoverable executor, and
// the stream executor over three micro-batches. All of
// them run the same node driver, so each failure case
// must surface the same Status code — and, where a node fails, the same
// message with the same node context — on every engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/recovery.h"
#include "activity/binding.h"
#include "activity/templates.h"
#include "common/macros.h"
#include "engine/vectorized.h"
#include "stream/stream_executor.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

struct EngineCase {
  std::string name;
  std::function<StatusOr<ExecutionResult>(const Workflow&,
                                          const ExecutionInput&)>
      run;
};

std::vector<EngineCase> AllEngines() {
  std::vector<EngineCase> engines;
  engines.push_back({"serial", [](const Workflow& w,
                                  const ExecutionInput& in) {
                       return ExecuteWorkflow(w, in);
                     }});
  for (size_t threads : {1u, 2u, 4u}) {
    engines.push_back(
        {"vectorized" + std::to_string(threads),
         [threads](const Workflow& w, const ExecutionInput& in) {
           VectorizedOptions options;
           options.num_threads = threads;
           options.batch_size = 8;
           return ExecuteVectorized(w, in, options);
         }});
  }
  engines.push_back({"recoverable", [](const Workflow& w,
                                       const ExecutionInput& in) {
                       RecoveryOptions options;
                       options.retry.max_attempts = 1;
                       return RecoverableExecutor(options).Execute(w, in);
                     }});
  engines.push_back({"stream", [](const Workflow& w,
                                  const ExecutionInput& in) {
                       StreamOptions options;
                       options.num_batches = 3;
                       options.retry.max_attempts = 1;
                       return StreamExecutor(options).Run(w, in);
                     }});
  return engines;
}

struct ErrorCase {
  std::string name;
  Workflow workflow;
  ExecutionInput input;
  StatusCode code;
  /// Whether the message names the failing node ("executing node ...").
  bool node_context;
};

std::vector<ErrorCase> AllErrorCases() {
  std::vector<ErrorCase> cases;
  auto fig1 = BuildFig1Scenario();
  EXPECT_TRUE(fig1.ok());
  auto fig4 = BuildFig4Scenario();
  EXPECT_TRUE(fig4.ok());

  // Mutated without Refresh().
  Workflow stale = fig1->workflow;
  EXPECT_TRUE(stale.SwapAdjacent(fig1->to_euro, fig1->a2e_date).ok());
  cases.push_back({"stale_workflow", stale, MakeFig1Input(1, 10),
                   StatusCode::kFailedPrecondition, false});

  cases.push_back({"unbound_source", fig1->workflow, ExecutionInput{},
                   StatusCode::kNotFound, false});

  ExecutionInput bad_arity = MakeFig1Input(1, 20);
  bad_arity.source_data["PARTS1"].push_back(Record({Value::Int(1)}));
  cases.push_back({"source_arity_mismatch", fig1->workflow, bad_arity,
                   StatusCode::kInvalidArgument, false});

  ExecutionInput no_lookup = MakeFig4Input(1, 100);
  EXPECT_FALSE(no_lookup.context.lookups.empty());
  no_lookup.context.lookups.clear();
  cases.push_back({"missing_surrogate_key_lookup", fig4->workflow, no_lookup,
                   StatusCode::kNotFound, true});
  return cases;
}

TEST(EngineErrorPathTest, EveryEngineFailsTheSameWay) {
  const std::vector<EngineCase> engines = AllEngines();
  for (const ErrorCase& c : AllErrorCases()) {
    SCOPED_TRACE(c.name);
    auto reference = ExecuteWorkflow(c.workflow, c.input);
    ASSERT_FALSE(reference.ok());
    EXPECT_EQ(reference.status().code(), c.code)
        << reference.status().ToString();
    EXPECT_EQ(reference.status().message().find("executing node") !=
                  std::string::npos,
              c.node_context)
        << reference.status().ToString();
    for (const EngineCase& engine : engines) {
      auto r = engine.run(c.workflow, c.input);
      ASSERT_FALSE(r.ok()) << engine.name;
      EXPECT_EQ(r.status().code(), c.code)
          << engine.name << ": " << r.status().ToString();
      EXPECT_EQ(r.status().message(), reference.status().message())
          << engine.name;
    }
  }
}

// The Function and SurrogateKey kernels, end to end. One flow:
//   S(ID, DAY, USD, K) -> a2e_date(DAY) in place -> USD_EUR = dollar2euro(USD)
//   dropping USD -> SKEY = lut(K) dropping K -> T(ID, DAY, USD_EUR, SKEY).
// Row r carries DAY "MM/DD/YYYY", USD r * 1.5 and K r % 7. Rows listed in
// `bad_dates` carry "bad<r>" instead (a2e_date fails on them), rows in
// `misses` carry K 1000 + r (absent from the lookup), and every fifth row
// has NULL USD and NULL DAY (NULL arguments give NULL results).
struct KernelFlow {
  Workflow workflow;
  ExecutionInput input;
};

KernelFlow MakeKernelFlow(size_t rows, std::vector<size_t> bad_dates,
                          std::vector<size_t> misses, bool bind_lookup) {
  Schema src = Schema::MakeOrDie({{"ID", DataType::kInt64},
                                  {"DAY", DataType::kString},
                                  {"USD", DataType::kDouble},
                                  {"K", DataType::kInt64}});
  Schema out = Schema::MakeOrDie({{"ID", DataType::kInt64},
                                  {"DAY", DataType::kString},
                                  {"USD_EUR", DataType::kDouble},
                                  {"SKEY", DataType::kInt64}});
  KernelFlow f;
  Workflow& w = f.workflow;
  NodeId s = w.AddRecordSet({"S", src, 100});
  NodeId date = *w.AddActivity(
      *MakeInPlaceFunction("to_eu_date", "a2e_date", "DAY", DataType::kString),
      {s});
  NodeId euro = *w.AddActivity(*MakeFunction("to_euro", "dollar2euro", {"USD"},
                                             "USD_EUR", DataType::kDouble,
                                             {"USD"}),
                               {date});
  NodeId sk = *w.AddActivity(
      *MakeSurrogateKey("assign_sk", {"K"}, "SKEY", "lut", {"K"}), {euro});
  NodeId t = w.AddRecordSet({"T", out, 0});
  ETLOPT_CHECK_OK(w.Connect(sk, t));
  ETLOPT_CHECK_OK(w.Finalize());

  auto listed = [](const std::vector<size_t>& v, size_t r) {
    return std::find(v.begin(), v.end(), r) != v.end();
  };
  auto& data = f.input.source_data["S"];
  for (size_t r = 0; r < rows; ++r) {
    const bool nulls = r % 5 == 0;
    Value day = listed(bad_dates, r)
                    ? Value::String("bad" + std::to_string(r))
                : nulls ? Value::Null()
                        : Value::String(std::to_string(1 + r % 12) + "/" +
                                        std::to_string(1 + r % 28) + "/2004");
    Value usd = nulls ? Value::Null() : Value::Double(r * 1.5);
    int64_t k = listed(misses, r) ? 1000 + static_cast<int64_t>(r)
                                  : static_cast<int64_t>(r % 7);
    data.push_back(Record({Value::Int(static_cast<int64_t>(r)), day, usd,
                           Value::Int(k)}));
  }
  if (bind_lookup) {
    auto& lut = f.input.context.lookups["lut"];
    for (int64_t k = 0; k < 7; ++k) {
      lut.emplace(std::vector<Value>{Value::Int(k)}, Value::Int(500 + k));
    }
  }
  return f;
}

// Every engine returns the serial engine's rows, or its exact Status —
// raised by the same row (the first failing one in flow order) of the
// same member. The stream executor reports the first failure in
// micro-batch order instead: it runs every member on one micro-batch
// before the next, so where two members fail, a later member failing on
// an early row beats an earlier member failing on a late row. Such a
// case pins the stream's exact Status separately.
TEST(EngineErrorPathTest, FunctionAndSurrogateKeyKernelsMatchSerial) {
  struct Case {
    std::string name;
    KernelFlow flow;
    StatusCode code;       // kOk: the run succeeds
    std::string expected;  // substring of the failure message
    // Set where the stream's first failure in micro-batch order is not
    // the reference's: its exact Status.
    std::optional<Status> stream_status = std::nullopt;
  };
  std::vector<Case> cases;
  cases.push_back({"null_args_and_in_place", MakeKernelFlow(90, {}, {}, true),
                   StatusCode::kOk, ""});
  cases.push_back({"function_fails_at_row_k",
                   MakeKernelFlow(90, {37, 61}, {}, true),
                   StatusCode::kInvalidArgument, "a2e_date: bad date 'bad37'"});
  cases.push_back({"surrogate_key_miss", MakeKernelFlow(90, {}, {44, 12}, true),
                   StatusCode::kNotFound,
                   "activity 'assign_sk': surrogate key miss for (1012)"});
  // Rows 0-29 are the stream's first micro-batch: its surrogate-key miss
  // at row 3 fails before the second member sees row 70.
  cases.push_back({"earlier_member_fails_first",
                   MakeKernelFlow(90, {70}, {3}, true),
                   StatusCode::kInvalidArgument, "bad date 'bad70'",
                   Status::NotFound("executing node 4 ('assign_sk'): activity "
                                    "'assign_sk': surrogate key miss for "
                                    "(1003)")});
  cases.push_back({"unbound_lookup", MakeKernelFlow(90, {}, {}, false),
                   StatusCode::kNotFound,
                   "activity 'assign_sk': lookup table 'lut' not bound"});
  cases.push_back({"unbound_lookup_zero_rows", MakeKernelFlow(0, {}, {}, false),
                   StatusCode::kNotFound,
                   "activity 'assign_sk': lookup table 'lut' not bound"});

  const std::vector<EngineCase> engines = AllEngines();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto reference = ExecuteWorkflow(c.flow.workflow, c.flow.input);
    EXPECT_EQ(reference.status().code(), c.code)
        << reference.status().ToString();
    if (c.code != StatusCode::kOk) {
      EXPECT_NE(reference.status().message().find(c.expected),
                std::string::npos)
          << reference.status().ToString();
    }
    for (const EngineCase& engine : engines) {
      auto r = engine.run(c.flow.workflow, c.flow.input);
      const Status& expected = engine.name == "stream" && c.stream_status
                                   ? *c.stream_status
                                   : reference.status();
      EXPECT_EQ(r.status().code(), expected.code())
          << engine.name << ": " << r.status().ToString();
      EXPECT_EQ(r.status().message(), expected.message()) << engine.name;
      if (r.ok() && reference.ok()) {
        EXPECT_EQ(r->target_data, reference->target_data) << engine.name;
        EXPECT_EQ(r->rows_out, reference->rows_out) << engine.name;
      }
    }
  }
}

// A surrogate key over a double column S(ID, K) -> SKEY = lut(K),
// dropping K. The table maps the ints 1..3 to 101..103; row r carries K
// 1.0 + r % 3, except the rows in `nan_rows`, which carry NaN.
KernelFlow MakeDoubleKeyFlow(size_t rows, std::vector<size_t> nan_rows) {
  Schema src = Schema::MakeOrDie(
      {{"ID", DataType::kInt64}, {"K", DataType::kDouble}});
  Schema out = Schema::MakeOrDie(
      {{"ID", DataType::kInt64}, {"SKEY", DataType::kInt64}});
  KernelFlow f;
  Workflow& w = f.workflow;
  NodeId s = w.AddRecordSet({"S", src, 100});
  NodeId sk = *w.AddActivity(
      *MakeSurrogateKey("assign_sk", {"K"}, "SKEY", "lut", {"K"}), {s});
  NodeId t = w.AddRecordSet({"T", out, 0});
  ETLOPT_CHECK_OK(w.Connect(sk, t));
  ETLOPT_CHECK_OK(w.Finalize());
  for (size_t r = 0; r < rows; ++r) {
    const bool nan =
        std::find(nan_rows.begin(), nan_rows.end(), r) != nan_rows.end();
    f.input.source_data["S"].push_back(Record(
        {Value::Int(static_cast<int64_t>(r)),
         Value::Double(nan ? std::numeric_limits<double>::quiet_NaN()
                           : 1.0 + static_cast<double>(r % 3))}));
  }
  for (int64_t k = 1; k <= 3; ++k) {
    f.input.context.lookups["lut"].emplace(std::vector<Value>{Value::Int(k)},
                                           Value::Int(100 + k));
  }
  return f;
}

// A NaN key is a surrogate-key miss on every engine, and a double key
// hits the int entry it equals.
TEST(EngineErrorPathTest, NaNKeyMissesAndEqualNumbersHitOnEveryEngine) {
  const KernelFlow hits = MakeDoubleKeyFlow(60, {});
  const KernelFlow nan = MakeDoubleKeyFlow(60, {41});
  auto reference = ExecuteWorkflow(hits.workflow, hits.input);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::vector<Record>& t = reference->target_data.at("T");
  ASSERT_EQ(t.size(), 60u);
  for (size_t r = 0; r < t.size(); ++r) {
    EXPECT_EQ(t[r], Record({Value::Int(static_cast<int64_t>(r)),
                            Value::Int(101 + static_cast<int64_t>(r % 3))}));
  }
  const Status miss = Status::NotFound(
      "executing node 2 ('assign_sk'): " +
      SurrogateKeyMiss("assign_sk",
                       {Value::Double(std::numeric_limits<double>::quiet_NaN())})
          .message());
  for (const EngineCase& engine : AllEngines()) {
    SCOPED_TRACE(engine.name);
    auto r = engine.run(hits.workflow, hits.input);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->target_data, reference->target_data);
    auto failed = engine.run(nan.workflow, nan.input);
    EXPECT_EQ(failed.status(), miss);
  }
}

}  // namespace
}  // namespace etlopt
