// State-space search algorithms for ETL workflow optimization (paper §4):
// Exhaustive Search (ES), Heuristic Search (HS, the four-phase algorithm
// of Fig. 7), and HS-Greedy.

#ifndef ETLOPT_OPTIMIZER_SEARCH_H_
#define ETLOPT_OPTIMIZER_SEARCH_H_

#include <string>
#include <string_view>
#include <vector>

#include "cost/state_cost.h"
#include "graph/workflow.h"
#include "optimizer/state_eval.h"

namespace etlopt {

/// Costs and signs a workflow (refreshing it if needed). Always fills the
/// string signature; the search algorithms use StateEvaluator instead.
StatusOr<State> MakeState(Workflow workflow, const CostModel& model);

/// A description of one applied transition, for tracing.
struct TransitionRecord {
  enum class Kind { kSwap, kFactorize, kDistribute, kMerge, kSplit };
  Kind kind = Kind::kSwap;
  std::string description;
};

/// All states one transition away from `state` (SWA, FAC, DIS — the
/// cost-relevant transitions; MER/SPL only reshape the search space).
/// Each successor is paired with the transition that produced it.
StatusOr<std::vector<std::pair<State, TransitionRecord>>> EnumerateSuccessors(
    const State& state, const CostModel& model);

/// Budget and tuning knobs shared by the algorithms.
struct SearchOptions {
  /// Stop after visiting this many states.
  size_t max_states = 200000;
  /// Stop after this much wall-clock time.
  int64_t max_millis = 60000;
  /// HS/HS-Greedy: cap on states explored per local-group swap sweep.
  size_t max_states_per_group = 64;

  /// HS: cap on the states kept by the Phase III distribution worklist
  /// (compositions of distributions past the cap are dropped).
  size_t max_phase3_states = 192;
  /// HS: Phase IV re-sweeps only the this-many cheapest visited states.
  size_t max_phase4_states = 16;

  /// Worker threads for frontier expansion (candidate successors of one
  /// state are evaluated concurrently; winner selection stays sequential,
  /// so results are byte-identical to a serial run). 1 = serial,
  /// 0 = ThreadPool::DefaultThreads().
  size_t num_threads = 1;

  /// HS/HS-Greedy ablation toggles; all true reproduces the paper's
  /// algorithm. Used by the heuristic-ablation bench to measure each
  /// phase's contribution.
  bool enable_phase1_sweep = true;   // Fig. 7 Phase I
  bool enable_factorize = true;      // Fig. 7 Phase II
  bool enable_distribute = true;     // Fig. 7 Phase III
  bool enable_phase4_resweep = true; // Fig. 7 Phase IV

  /// Cache-aware costing (see CacheCostHint): discounts subgraphs whose
  /// results a shared result cache already holds, so search prefers
  /// plans that keep shared prefixes intact. Unowned; must outlive the
  /// search call and stay stable during it. Null (the default) costs
  /// plans exactly as before — the optimizer service never sets this,
  /// so its plan-cache keys never split on it.
  const CacheCostHint* cache_hint = nullptr;

  /// Reliability-aware costing (see cost/reliability_model.h): every
  /// state's cost gains the expected checkpoint + recovery cost of its
  /// optimal recovery-point placement, so search trades execution cost
  /// against failure exposure, and results carry a RecoveryPointPlan.
  /// Unowned; must outlive the search call and stay stable during it.
  /// Null (the default) costs plans exactly as before, bit for bit.
  const ReliabilityParams* reliability = nullptr;
};

/// Rejects nonsensical budgets (max_states == 0, max_millis <= 0,
/// max_phase4_states == 0) with InvalidArgument. Every search entry point
/// calls this before doing any work.
Status ValidateSearchOptions(const SearchOptions& options);

/// Canonical string of exactly the options that can change a search's
/// *result* (budgets, per-phase caps, ablation toggles). num_threads is
/// deliberately excluded: results are byte-identical across thread counts
/// by construction, so the serving layer's plan cache must not split
/// entries on it. Note max_millis *is* included — a wall-clock
/// budget that actually fires makes results timing-dependent, so cached
/// serving assumes deadlines generous enough that the state budget binds
/// first.
std::string ResultFingerprint(const SearchOptions& options);

/// User-supplied merge constraints for HS pre-processing: activities are
/// named by label; each pair is packaged before the search and split
/// afterwards (paper §2.2 Merge/Split and Heuristic 3).
struct MergeConstraint {
  std::string first_label;
  std::string second_label;
};

struct SearchResult {
  State best;
  double initial_cost = 0.0;
  size_t visited_states = 0;
  int64_t elapsed_millis = 0;
  /// ES only: true when the whole space was enumerated within budget.
  bool exhausted = true;
  /// ES only: the transition sequence that rewrites the initial state
  /// into `best` (empty when best == initial). The heuristics do not
  /// track lineage; their vector stays empty.
  std::vector<TransitionRecord> best_path;
  /// How the run spent its costing work (delta vs full recosts, node
  /// cache hits, thread count).
  SearchPerf perf;

  /// The recovery-point decision for `best`. Enabled (and non-trivial)
  /// only when SearchOptions::reliability was set; disabled plans
  /// serialize to nothing, keeping legacy formats byte-identical.
  RecoveryPointPlan recovery;

  /// The paper's Table 2 metric: cost improvement over the initial state.
  double improvement_pct() const {
    if (initial_cost <= 0.0) return 0.0;
    return 100.0 * (initial_cost - best.cost) / initial_cost;
  }
};

/// ES: breadth-first enumeration of every reachable state (budgeted).
StatusOr<SearchResult> ExhaustiveSearch(const Workflow& initial,
                                        const CostModel& model,
                                        const SearchOptions& options = {});

/// HS: the four-phase heuristic of the paper's Fig. 7 — merge
/// pre-processing, per-local-group swap optimization, factorization of
/// homologous pairs, distribution, and a final swap re-sweep, then splits.
StatusOr<SearchResult> HeuristicSearch(
    const Workflow& initial, const CostModel& model,
    const SearchOptions& options = {},
    const std::vector<MergeConstraint>& merge_constraints = {});

/// HS-Greedy: HS with the swap sweeps (Phases I and IV) replaced by
/// hill-climbing that only accepts cost-improving swaps.
StatusOr<SearchResult> HeuristicSearchGreedy(
    const Workflow& initial, const CostModel& model,
    const SearchOptions& options = {},
    const std::vector<MergeConstraint>& merge_constraints = {});

/// Which search algorithm to run — the request-level selector used by the
/// optimizer service and tools that dispatch on configuration.
enum class SearchAlgorithm { kExhaustive, kHeuristic, kHeuristicGreedy };

/// "es" / "hs" / "hsg".
std::string_view SearchAlgorithmToString(SearchAlgorithm algorithm);
StatusOr<SearchAlgorithm> SearchAlgorithmFromString(std::string_view name);

/// Fills `result.recovery` from the best state's breakdown when
/// `options.reliability` is set (a disabled, empty plan otherwise). Called
/// by every algorithm's finalization; exposed for the annealing extension
/// and tests.
Status FinalizeRecoveryPlan(SearchResult& result, const CostModel& model,
                            const SearchOptions& options);

/// Dispatches to ExhaustiveSearch / HeuristicSearch / HeuristicSearchGreedy
/// (ES ignores merge constraints, as before).
StatusOr<SearchResult> RunSearch(
    SearchAlgorithm algorithm, const Workflow& initial, const CostModel& model,
    const SearchOptions& options = {},
    const std::vector<MergeConstraint>& merge_constraints = {});

}  // namespace etlopt

#endif  // ETLOPT_OPTIMIZER_SEARCH_H_
