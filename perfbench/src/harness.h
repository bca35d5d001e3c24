// Shared plumbing for the benchmark workloads: the run's arguments,
// the raw record every workload fills (samples, counters, spans, output
// checks), the host reference kernel, and the output comparisons.
//
// The benchmark binary only measures. It writes one raw JSON record; the
// statistics (medians, tail percentiles, rank correlation, span self
// time) are computed by perfbench/stats.py, so they are tested in one
// place.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/executor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Setup is repeated this many times; setup_s is their median.
  int setup_reps = 3;
  std::string out_path;
  /// Scratch directory for checkpoint files (inside the checkout).
  std::string work_dir;
};

/// Nanoseconds since the process-wide epoch (first call).
int64_t NowNs();
double MsSince(Clock::time_point t0);

/// One timed call into a program layer. `parent` is the enclosing span
/// on the same thread (0 = none); `op` groups the spans of one
/// benchmark operation.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store. Recording is off unless Enable(true); spans are
/// written out only when the run ends.
class Tracer {
 public:
  static Tracer& Global();
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t NewOp();
  uint64_t Begin();
  void End(uint64_t id, uint64_t parent, uint64_t op, const char* name,
           int64_t start_ns);
  std::vector<SpanRecord> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  uint64_t next_id_ = 1;
  uint64_t next_op_ = 1;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call into a layer. Costs two clock reads and a
/// push under a mutex when tracing is on, nothing when it is off.
class Span {
 public:
  explicit Span(const char* name, uint64_t op = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Op id spans on this thread inherit when given none.
  static void SetThreadOp(uint64_t op);

 private:
  const char* name_;
  bool on_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t op_ = 0;
  int64_t start_ns_ = 0;
};

/// Everything a run reports. Thread-safe appends.
class Raw {
 public:
  void Sample(const std::string& name, double value);
  /// Appends one tuple (e.g. due, sent, done) to table `name`.
  void Row(const std::string& name, std::vector<double> row);
  void Count(const std::string& name, double value);
  void Set(const std::string& name, double value);
  void Attempt(size_t n = 1);
  /// A wrong output, error Status or shed: counted and described once.
  void Fail(const std::string& what);
  void SetupSeconds(double s);
  size_t failed() const;
  /// Writes the raw JSON record (spans included) to `path`.
  bool Write(const std::string& path, const Args& args);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<std::vector<double>>> rows_;
  std::vector<double> setup_s_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Samples "host.ref_ms", a fixed integer kernel on one thread (~2 ms;
/// same instructions and cache footprint every call), so a slow host
/// phase can be told apart from a slow program. It is reported as a
/// per-layer metric only; no end-to-end metric is scaled by it.
/// Maybe() samples at most every `interval_ms` of wall time (call
/// between operations), Now() unconditionally.
class HostSampler {
 public:
  HostSampler(Raw& raw, double interval_ms = 200)
      : raw_(raw), interval_ms_(interval_ms) {}
  void Maybe();
  void Now();

 private:
  Raw& raw_;
  double interval_ms_;
  Clock::time_point last_{};
  bool started_ = false;
};

/// The measured loop's clock, and the schedule of the workload's setup.
/// Setup runs once before the loop and is then repeated at even points
/// of the loop's time (args.setup_reps runs in all), so setup_s is a
/// median over the run's host phases like every other figure, not a
/// snapshot of its first seconds. The deadline moves out by the time
/// each repeat takes, so the operations still get args.seconds. Setup
/// must be deterministic and leave the workload's state as it found it.
class MeasuredLoop {
 public:
  MeasuredLoop(const Args& args, Raw& raw, std::function<bool()> setup)
      : args_(args), raw_(raw), setup_(std::move(setup)) {}
  /// The first setup. False when it failed (reported through raw).
  bool SetUp();
  /// Starts the loop's clock.
  void Start();
  /// Call between operations: runs a setup repeat when one is due, then
  /// says whether the loop has time left. False after a failed repeat.
  bool Running();
  bool ok() const { return ok_; }

 private:
  bool TimedSetup();

  const Args& args_;
  Raw& raw_;
  std::function<bool()> setup_;
  Clock::time_point start_{};
  Clock::time_point deadline_{};
  Clock::duration paused_{};
  int runs_ = 0;
  bool ok_ = true;
};

double PeakRssMb();

/// splitmix64: derives independent sub-seeds from the workload seed.
uint64_t Mix(uint64_t seed, uint64_t stream);

size_t SourceRows(const etlopt::ExecutionInput& input);

/// Targets with every row list sorted: the multiset form used to compare
/// plans that may legitimately emit rows in another order.
using SortedTargets = std::map<std::string, std::vector<etlopt::Record>>;
SortedTargets Sorted(const etlopt::ExecutionResult& result);

/// Byte-identity of targets (rows and order) and per-node rows_out.
bool SameResult(const etlopt::ExecutionResult& a,
                const etlopt::ExecutionResult& b);

/// Milliseconds of a wall interval.
inline double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

int RunNightlyLoad(const Args& args, Raw& raw);
int RunPlanService(const Args& args, Raw& raw);
int RunDurableFeed(const Args& args, Raw& raw);
int RunTenantOverlap(const Args& args, Raw& raw);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
