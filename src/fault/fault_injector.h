// FaultInjector: process-wide, seed-deterministic fault injection.
//
// Production code is sprinkled with named *fault sites* via
// ETLOPT_FAULT_HIT(site): activity execution, recordset scan/append,
// thread-pool tasks, service requests, plan-cache and checkpoint I/O.
// Tests and the fault sweep arm the global injector with a schedule —
// a list of (site, hit index, kind) entries — and every hit of a site
// is counted; when the count matches a scheduled entry the injector
// fires: a transient Status error (Unavailable), a delay, or a
// crash-point (a non-retryable Internal error that models the process
// dying at that instruction — retry layers must NOT absorb it; recovery
// happens in a fresh run from persisted checkpoints).
//
// Overhead discipline: when the injector is disarmed (the default) a hit
// is one relaxed atomic load and a predictable branch — no counting, no
// locks. Compiling with -DETLOPT_NO_FAULT_INJECTION removes the hooks
// entirely. Schedules are immutable while armed, so firing decisions
// need no locking either; per-site hit counters are atomic.
//
// Determinism: with a serial engine, hit N of a site is the same logical
// operation on every run, so a schedule reproduces a failure exactly.
// Under parallel engines the site that fires is schedule-deterministic
// but the logical operation it lands on depends on interleaving — which
// is precisely what the recovery property test wants to survive.

#ifndef ETLOPT_FAULT_FAULT_INJECTOR_H_
#define ETLOPT_FAULT_FAULT_INJECTOR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace etlopt {

/// Every instrumented location, by semantic role.
enum class FaultSite : int {
  kActivityExecute = 0,  // one activity-chain node execution
  kRecordSetScan = 1,    // RecordSet::ScanAll
  kRecordSetAppend = 2,  // RecordSet::Append
  kThreadPoolTask = 3,   // one ParallelFor item dispatch
  kServiceRequest = 4,   // OptimizerService request handling
  kSearchExecute = 5,    // one optimizer search invocation
  kPlanCacheSave = 6,    // persisting the plan cache
  kPlanCacheLoad = 7,    // warm-loading the plan cache
  kCheckpointWrite = 8,  // recovery checkpoint write
  kCheckpointRead = 9,   // recovery checkpoint read
  kStreamSourceNext = 10,       // MicroBatchSource::Next batch delivery
  kStreamStateCheckpoint = 11,  // stream-state checkpoint write/read
  kVectorizedBatch = 12,        // one columnar batch through the
                                // vectorized engine
  kNetAccept = 13,              // accepting one server connection
  kNetRead = 14,                // one socket read (frame bytes in)
  kNetWrite = 15,               // one socket write (frame bytes out)
  kCacheLookup = 16,            // one shared-result-cache probe
  kCacheMaterialize = 17,       // one shared-result-cache publication
  kRecoveryPlaceCheckpoint = 18,  // writing one optimizer-placed
                                  // (RecoveryPointPlan) checkpoint
};
inline constexpr int kNumFaultSites = 19;

/// Stable lowercase name ("activity_execute", ...), for reports and
/// schedule printing.
std::string_view FaultSiteName(FaultSite site);

/// All sites, for sweeps.
const std::array<FaultSite, kNumFaultSites>& AllFaultSites();

enum class FaultKind : int {
  /// Transient error: Status::Unavailable. Retry layers absorb it.
  kError = 0,
  /// Sleep delay_micros, then succeed. Exercises deadlines.
  kDelay = 1,
  /// Non-retryable Status::Internal modeling a process kill at this
  /// point. IsInjectedCrash() recognizes it.
  kCrash = 2,
};

/// One scheduled fault: fire `kind` on hit number `hit` (0-based) of
/// `site`.
struct FaultSpec {
  FaultSite site = FaultSite::kActivityExecute;
  uint64_t hit = 0;
  FaultKind kind = FaultKind::kError;
  int64_t delay_micros = 100;  // kDelay only
};

struct FaultSchedule {
  std::vector<FaultSpec> faults;
};

/// Options for random schedule generation.
struct FaultScheduleOptions {
  /// Faults to draw.
  size_t num_faults = 3;
  /// Hit indices are drawn uniformly from [0, max_hit).
  uint64_t max_hit = 64;
  /// Relative weights of error / delay / crash faults.
  double error_weight = 0.6;
  double delay_weight = 0.2;
  double crash_weight = 0.2;
  int64_t delay_micros = 200;
};

/// Draws a reproducible random schedule: equal seeds yield equal
/// schedules. Sites are drawn uniformly from AllFaultSites().
FaultSchedule MakeRandomFaultSchedule(uint64_t seed,
                                      const FaultScheduleOptions& options = {});

/// Counters the injector keeps while armed.
struct FaultStats {
  std::array<uint64_t, kNumFaultSites> hits{};   // per-site hit counts
  std::array<uint64_t, kNumFaultSites> fired{};  // per-site fired faults
  uint64_t total_hits() const {
    uint64_t n = 0;
    for (uint64_t h : hits) n += h;
    return n;
  }
  uint64_t total_fired() const {
    uint64_t n = 0;
    for (uint64_t f : fired) n += f;
    return n;
  }
};

class FaultInjector {
 public:
  /// The process-wide instance every ETLOPT_FAULT_HIT consults.
  static FaultInjector& Global();

  /// Installs `schedule`, zeroes all counters, and enables injection.
  /// Arming with an empty schedule turns on pure hit counting (nothing
  /// fires) — the sweep uses that to size hit ranges, and the overhead
  /// bench to count hook executions.
  void Arm(FaultSchedule schedule);

  /// Disables injection; hits return to the zero-cost fast path.
  /// Counters and stats survive until the next Arm().
  void Disarm();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Called by armed hooks: counts the hit and fires any scheduled
  /// fault. Returns the injected error, or OK (possibly after a delay).
  Status Hit(FaultSite site);

  FaultStats Stats() const;

 private:
  FaultInjector() = default;

  std::atomic<bool> armed_{false};
  // (hit index -> spec) per site; immutable while armed.
  std::array<std::unordered_map<uint64_t, FaultSpec>, kNumFaultSites>
      schedule_;
  std::array<std::atomic<uint64_t>, kNumFaultSites> hits_{};
  std::array<std::atomic<uint64_t>, kNumFaultSites> fired_{};
};

/// True iff `status` is an injected crash-point (the one injected error
/// retry layers must never absorb).
bool IsInjectedCrash(const Status& status);

/// One hit of `site`: the injected error, or OK when nothing fires, the
/// injector is disarmed, or injection is compiled out
/// (-DETLOPT_NO_FAULT_INJECTION). Sites that must not propagate the
/// error (best-effort I/O, the result cache) call this directly.
inline Status FaultProbe(FaultSite site) {
#ifndef ETLOPT_NO_FAULT_INJECTION
  if (FaultInjector::Global().armed()) {
    return FaultInjector::Global().Hit(site);
  }
#else
  (void)site;
#endif
  return Status::OK();
}

/// RAII arm/disarm, so a test cannot leak an armed injector into the
/// rest of the binary.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(FaultSchedule schedule) {
    FaultInjector::Global().Arm(std::move(schedule));
  }
  ~ScopedFaultInjection() { FaultInjector::Global().Disarm(); }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace etlopt

// The hook. Propagates an injected error out of the enclosing
// Status/StatusOr function; a no-op when the injector is disarmed or
// compiled out.
#define ETLOPT_FAULT_HIT(site)                                         \
  do {                                                                 \
    ::etlopt::Status _etlopt_fault = ::etlopt::FaultProbe(site);       \
    if (!_etlopt_fault.ok()) return _etlopt_fault;                     \
  } while (false)

#endif  // ETLOPT_FAULT_FAULT_INJECTOR_H_
