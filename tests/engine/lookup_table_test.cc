// Lookup-table lifetime: a table's hash index is built once and shared by
// every copy of the input, and a mutation between runs is seen by the
// next run on every engine.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "activity/templates.h"
#include "common/macros.h"
#include "engine/executor.h"
#include "engine/recovery.h"
#include "engine/vectorized.h"
#include "stream/micro_batch.h"
#include "stream/stream_executor.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

using RunFn = std::function<StatusOr<ExecutionResult>(const Workflow&,
                                                      const ExecutionInput&)>;

struct Engine {
  std::string name;
  RunFn run;
};

std::vector<Engine> Engines() {
  std::vector<Engine> engines;
  engines.push_back({"serial", [](const Workflow& w, const ExecutionInput& in) {
                       return ExecuteWorkflow(w, in);
                     }});
  for (size_t threads : {1u, 4u}) {
    engines.push_back({"vectorized" + std::to_string(threads),
                       [threads](const Workflow& w, const ExecutionInput& in) {
                         VectorizedOptions options;
                         options.num_threads = threads;
                         options.batch_size = 16;
                         return ExecuteVectorized(w, in, options);
                       }});
  }
  engines.push_back({"stream", [](const Workflow& w, const ExecutionInput& in) {
                       StreamOptions options;
                       options.num_batches = 3;
                       return StreamExecutor(options).Run(w, in);
                     }});
  return engines;
}

// S(ID, K) -> SKEY = lut(K), dropping K -> T(ID, SKEY). Row r carries
// K = r % 8; the table maps 0..6 to 500..506, so K = 7 misses until an
// entry for it is added.
struct Flow {
  Workflow workflow;
  ExecutionInput input;
};

Flow MakeFlow(size_t rows) {
  Schema src = Schema::MakeOrDie(
      {{"ID", DataType::kInt64}, {"K", DataType::kInt64}});
  Schema out = Schema::MakeOrDie(
      {{"ID", DataType::kInt64}, {"SKEY", DataType::kInt64}});
  Flow f;
  NodeId s = f.workflow.AddRecordSet({"S", src, 100});
  NodeId sk = *f.workflow.AddActivity(
      *MakeSurrogateKey("assign_sk", {"K"}, "SKEY", "lut", {"K"}), {s});
  NodeId t = f.workflow.AddRecordSet({"T", out, 0});
  ETLOPT_CHECK_OK(f.workflow.Connect(sk, t));
  ETLOPT_CHECK_OK(f.workflow.Finalize());
  for (size_t r = 0; r < rows; ++r) {
    f.input.source_data["S"].push_back(
        Record({Value::Int(static_cast<int64_t>(r)),
                Value::Int(static_cast<int64_t>(r % 8))}));
  }
  for (int64_t k = 0; k < 7; ++k) {
    f.input.context.lookups["lut"].emplace(std::vector<Value>{Value::Int(k)},
                                           Value::Int(500 + k));
  }
  return f;
}

// The target T the flow should produce for `surrogate` (K -> SKEY).
std::vector<Record> Expected(size_t rows,
                             const std::function<int64_t(int64_t)>& surrogate) {
  std::vector<Record> out;
  for (size_t r = 0; r < rows; ++r) {
    out.push_back(Record({Value::Int(static_cast<int64_t>(r)),
                          Value::Int(surrogate(static_cast<int64_t>(r % 8)))}));
  }
  return out;
}

TEST(LookupTableTest, EveryMutationIsSeenByTheNextRun) {
  constexpr size_t kRows = 40;
  for (const Engine& engine : Engines()) {
    SCOPED_TRACE(engine.name);
    Flow f = MakeFlow(kRows);
    LookupTable& lut = f.input.context.lookups.at("lut");
    // K = 7 misses; the run builds the table's index.
    auto first = engine.run(f.workflow, f.input);
    ASSERT_FALSE(first.ok());
    EXPECT_TRUE(first.status().IsNotFound()) << first.status().ToString();

    // A new key.
    ASSERT_TRUE(lut.emplace(std::vector<Value>{Value::Int(7)}, Value::Int(507))
                    .second);
    auto added = engine.run(f.workflow, f.input);
    ASSERT_TRUE(added.ok()) << added.status().ToString();
    EXPECT_EQ(added->target_data.at("T"),
              Expected(kRows, [](int64_t k) { return 500 + k; }));

    // An overwritten surrogate; a copy taken before keeps the old one.
    const ExecutionInput before = f.input;
    lut[{Value::Int(3)}] = Value::Int(999);
    auto overwritten = engine.run(f.workflow, f.input);
    ASSERT_TRUE(overwritten.ok()) << overwritten.status().ToString();
    EXPECT_EQ(overwritten->target_data.at("T"),
              Expected(kRows, [](int64_t k) { return k == 3 ? 999 : 500 + k; }));
    auto old = engine.run(f.workflow, before);
    ASSERT_TRUE(old.ok()) << old.status().ToString();
    EXPECT_EQ(old->target_data.at("T"), added->target_data.at("T"));

    // A cleared table: the first row misses.
    lut.clear();
    auto cleared = engine.run(f.workflow, f.input);
    ASSERT_FALSE(cleared.ok());
    EXPECT_NE(cleared.status().message().find("surrogate key miss for (0)"),
              std::string::npos)
        << cleared.status().ToString();
  }
}

TEST(LookupTableTest, CopiesShareTablesAndIndexes) {
  Flow f = MakeFlow(10);
  const ExecutionInput copy = f.input;
  const LookupTable& original = f.input.context.lookups.at("lut");
  const LookupTable& shared = copy.context.lookups.at("lut");
  EXPECT_EQ(&shared.entries(), &original.entries());
  EXPECT_EQ(&shared.Index(), &original.Index());

  // A stream source shares its capture's tables too.
  StreamOptions options;
  options.num_batches = 2;
  auto source = MicroBatchSource::Make(f.workflow, copy, options);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(&source->context().lookups.at("lut").entries(),
            &original.entries());

  // Mutating one copy detaches it and leaves the others as they were.
  f.input.context.lookups.at("lut").emplace(
      std::vector<Value>{Value::Int(7)}, Value::Int(507));
  const LookupTable& mutated = f.input.context.lookups.at("lut");
  EXPECT_NE(&mutated.entries(), &shared.entries());
  EXPECT_EQ(mutated.size(), 8u);
  EXPECT_EQ(shared.size(), 7u);
  EXPECT_EQ(shared.count({Value::Int(7)}), 0u);
  EXPECT_EQ(&source->context().lookups.at("lut").entries(), &shared.entries());
}

// The checkpoint key reads the entries alone: copies carry their input's
// key, and the key of a fixed input is the one recorded while tables were
// still plain ordered maps.
TEST(LookupTableTest, FingerprintFollowsEntriesNotStorage) {
  EXPECT_EQ(ExecutionInputFingerprint(MakeFig4Input(9, 128)),
            6945149051556199663ull);
  Flow f = MakeFlow(10);
  ExecutionInput copy = f.input;
  EXPECT_EQ(ExecutionInputFingerprint(copy), ExecutionInputFingerprint(f.input));
  copy.context.lookups.at("lut")[{Value::Int(3)}] = Value::Int(999);
  EXPECT_NE(ExecutionInputFingerprint(copy), ExecutionInputFingerprint(f.input));
  copy.context.lookups.at("lut")[{Value::Int(3)}] = Value::Int(503);
  EXPECT_EQ(ExecutionInputFingerprint(copy), ExecutionInputFingerprint(f.input));
}

// Eight threads start vectorized runs on one input whose index is not
// built yet; every run gets the serial engine's rows.
TEST(LookupTableTest, EightThreadsRaceToTheFirstProbe) {
  constexpr size_t kRows = 2000;
  Flow reference_flow = MakeFlow(kRows);
  reference_flow.input.context.lookups.at("lut").emplace(
      std::vector<Value>{Value::Int(7)}, Value::Int(507));
  auto reference =
      ExecuteWorkflow(reference_flow.workflow, reference_flow.input);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  Flow f = MakeFlow(kRows);
  f.input.context.lookups.at("lut").emplace(std::vector<Value>{Value::Int(7)},
                                            Value::Int(507));
  std::vector<StatusOr<ExecutionResult>> results(
      8, Status::Internal("not run"));
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < results.size(); ++i) {
    threads.emplace_back([&f, &results, &ready, i] {
      ready.fetch_add(1);
      while (ready.load() < results.size()) std::this_thread::yield();
      VectorizedOptions options;
      options.num_threads = 1;
      options.batch_size = 64;
      results[i] = ExecuteVectorized(f.workflow, f.input, options);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->target_data, reference->target_data);
  }
}

}  // namespace
}  // namespace etlopt
