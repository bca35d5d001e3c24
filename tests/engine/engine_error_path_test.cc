// Error paths, table-driven over every engine: the serial reference,
// parallel and vectorized at one and four threads, the recoverable
// executor, and the stream executor over three micro-batches. All of
// them run the same node driver, so each failure case
// must surface the same Status code — and, where a node fails, the same
// message with the same node context — on every engine.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/parallel.h"
#include "engine/recovery.h"
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
  for (size_t threads : {1u, 4u}) {
    engines.push_back(
        {"parallel" + std::to_string(threads),
         [threads](const Workflow& w, const ExecutionInput& in) {
           ParallelOptions options;
           options.num_threads = threads;
           options.morsel_size = 8;
           return ExecuteParallel(w, in, options);
         }});
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

}  // namespace
}  // namespace etlopt
