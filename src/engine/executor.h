// Executor: runs an ETL workflow over actual data.
//
// The optimizer never needs this — it reasons over schemas and costs —
// but the executor is what makes transition correctness *testable*: two
// equivalent states must produce identical target contents from identical
// source contents (the paper's definition of equivalence, §2.2).

#ifndef ETLOPT_ENGINE_EXECUTOR_H_
#define ETLOPT_ENGINE_EXECUTOR_H_

#include <map>
#include <string>
#include <vector>

#include "graph/workflow.h"
#include "records/recordset.h"

namespace etlopt {

class SharedResultCache;

/// Everything a run needs besides the workflow itself: source contents
/// (keyed by recordset name) and the surrogate-key lookup tables.
struct ExecutionInput {
  std::map<std::string, std::vector<Record>> source_data;
  ExecutionContext context;
};

/// Where the engines probe the shared result cache.
enum class CutPointPolicy : int {
  /// Activity nodes worth materializing: chain contains a blocking member
  /// (aggregation, PK check, join, difference, intersection), or the node
  /// feeds a recordset (staging/target — the flow and backbone stage
  /// boundaries), or it feeds a multi-input activity (union providers).
  kAuto = 0,
  /// Every activity node. Maximizes reuse granularity; tests use it to
  /// stress the protocol.
  kAll = 1,
};

/// Shared-result-cache knobs, off by default: with `cache == nullptr`
/// no node is served, skipped or published, and every engine computes
/// every node.
struct CacheOptions {
  /// Not owned; must outlive the run. nullptr disables caching.
  SharedResultCache* cache = nullptr;
  CutPointPolicy cut_points = CutPointPolicy::kAuto;
};

/// Per-run shared-result-cache bookkeeping. `rows_computed` versus the
/// full Σ rows_out is the work-saved metric the bench gate checks.
struct CacheRunStats {
  bool enabled = false;
  size_t cut_points = 0;      // cacheable cut points identified
  size_t hits = 0;            // cut points served from the cache
  size_t misses = 0;          // probed cut points that had to compute
  size_t published = 0;       // leases completed with a publication
  size_t nodes_total = 0;     // activity nodes in the workflow
  size_t nodes_executed = 0;  // activity nodes actually executed
  size_t rows_computed = 0;   // Σ rows_out over executed nodes only
};

/// The result of a run: rows delivered to each target recordset (keyed by
/// name, realigned to the target's declared schema), plus bookkeeping.
struct ExecutionResult {
  std::map<std::string, std::vector<Record>> target_data;
  /// Rows that crossed each activity node's output, keyed by node id —
  /// the observed analogue of the cost model's cardinality estimates.
  /// Complete even for cache-served nodes (transferred positionally from
  /// the publishing run).
  std::map<NodeId, size_t> rows_out;
  CacheRunStats cache;
};

/// Executes `workflow` (which must be fresh, i.e. Refresh() succeeded)
/// over `input`. Fails if a source has no data entry, a lookup is missing,
/// or any activity rejects its input.
StatusOr<ExecutionResult> ExecuteWorkflow(const Workflow& workflow,
                                          const ExecutionInput& input);

/// As above, consulting a shared result cache at the cut points selected
/// by `cache_options`. Byte-identical outputs either way; cache failures
/// (evictions, busy leases, injected faults) degrade to recomputation.
StatusOr<ExecutionResult> ExecuteWorkflow(const Workflow& workflow,
                                          const ExecutionInput& input,
                                          const CacheOptions& cache_options);

/// Convenience: executes and loads the results into bound RecordSet
/// objects (e.g. MemoryTable or CsvFile targets), truncating them first.
Status ExecuteWorkflowInto(
    const Workflow& workflow, const ExecutionInput& input,
    const std::map<std::string, RecordSet*>& targets);

/// True iff the two workflows produce identical target multisets on
/// `input` — the empirical equivalence check used throughout the tests.
StatusOr<bool> ProduceSameOutput(const Workflow& a, const Workflow& b,
                                 const ExecutionInput& input);

/// Reorders `rows` (laid out by `from`) into `to`'s attribute order —
/// the serial strategy's staging/target realignment step. Consumes
/// `rows` and moves their cells.
StatusOr<std::vector<Record>> RealignRecords(std::vector<Record> rows,
                                             const Schema& from,
                                             const Schema& to);

}  // namespace etlopt

#endif  // ETLOPT_ENGINE_EXECUTOR_H_
