// ExecuteParallel: forwards to the vectorized engine
// (engine/vectorized.h), which is the one parallel engine.
//
// This header exists only because the repository benchmark
// (perfbench/src/nightly_load.cc) calls ExecuteParallel with a
// ParallelOptions, and perfbench changes only together with its
// workloads. Code in src/, tests/ and bench/ calls ExecuteVectorized
// directly; nothing new should include this header.

#ifndef ETLOPT_ENGINE_PARALLEL_H_
#define ETLOPT_ENGINE_PARALLEL_H_

#include "engine/vectorized.h"

namespace etlopt {

using ParallelOptions = VectorizedOptions;

inline StatusOr<ExecutionResult> ExecuteParallel(
    const Workflow& workflow, const ExecutionInput& input,
    const ParallelOptions& options = {}) {
  return ExecuteVectorized(workflow, input, options);
}

}  // namespace etlopt

#endif  // ETLOPT_ENGINE_PARALLEL_H_
