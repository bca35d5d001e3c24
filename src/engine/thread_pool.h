// ThreadPool: a fixed-size worker pool for the parallel (vectorized)
// execution engine and the parallel search.
//
// The pool is deliberately small-surface: fire-and-collect tasks
// (Submit) and a blocking data-parallel loop (ParallelFor) built on an
// atomic work counter, plus MakeMorsels to cut a row range into the
// chunks ParallelFor hands out.
// Workers are numbered 0..num_threads-1 and the number is passed to every
// task, so callers can keep contention-free per-worker accumulators.
// The worker threads start lazily, on the first Submit or the first
// ParallelFor with more than one driver: a 1-thread pool that only runs
// ParallelFor never starts a thread.

#ifndef ETLOPT_ENGINE_THREAD_POOL_H_
#define ETLOPT_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/statusor.h"

namespace etlopt {

/// A half-open morsel of row indices [begin, end).
struct Morsel {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Splits [0, n) into morsels of at most `morsel_size` rows (a zero size
/// counts as 1).
std::vector<Morsel> MakeMorsels(size_t n, size_t morsel_size);

class ThreadPool {
 public:
  /// A pool of `num_threads` workers (clamped to >= 1), started lazily.
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue and joins the workers. Pending tasks still run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  /// Enqueues one task; the future resolves when it has run. The task
  /// receives the index of the worker that executes it. A task that
  /// throws does not harm the pool: the exception is captured into the
  /// returned future (rethrown by .get()) and the worker keeps serving.
  std::future<void> Submit(std::function<void(size_t worker)> fn);

  /// Runs `fn(item, worker)` for every item in [0, n) on min(n,
  /// num_threads()) drivers that claim items from an atomic counter, and
  /// blocks until all items finish. The calling thread is driver 0 and
  /// the workers run the others, so a single-driver loop runs inline on
  /// the caller and hands nothing off. `worker` is the driver's index,
  /// unique among the drivers of one call. If any invocation returns a
  /// non-OK status, no further items are claimed and the error with the
  /// *smallest* item index is returned — callers see a deterministic
  /// error regardless of thread interleaving. An invocation that throws
  /// is converted to an Internal status and reported the same way —
  /// never a wedged pool or a silently dropped item. Nesting ParallelFor
  /// inside a pool task can deadlock (the engine never does).
  Status ParallelFor(size_t n,
                     const std::function<Status(size_t item, size_t worker)>& fn);

  /// A default number of workers for callers that pass 0: the hardware
  /// concurrency, clamped to >= 1.
  static size_t DefaultThreads();

 private:
  void WorkerLoop(size_t worker_index);
  /// Starts the workers once; later calls return at once.
  void StartWorkers();

  size_t num_threads_;
  std::once_flag started_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void(size_t)>> queue_;
  bool shutdown_ = false;
};

}  // namespace etlopt

#endif  // ETLOPT_ENGINE_THREAD_POOL_H_
