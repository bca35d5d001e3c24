#include "engine/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "fault/fault_injector.h"

namespace etlopt {

std::vector<Morsel> MakeMorsels(size_t n, size_t morsel_size) {
  morsel_size = std::max<size_t>(1, morsel_size);
  std::vector<Morsel> morsels;
  morsels.reserve(n / morsel_size + 1);
  for (size_t begin = 0; begin < n; begin += morsel_size) {
    morsels.push_back({begin, std::min(n, begin + morsel_size)});
  }
  return morsels;
}

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(std::max<size_t>(1, num_threads)) {}

void ThreadPool::StartWorkers() {
  std::call_once(started_, [this] {
    workers_.reserve(num_threads_);
    for (size_t i = 0; i < num_threads_; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void(size_t)> fn) {
  StartWorkers();
  std::packaged_task<void(size_t)> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  while (true) {
    std::packaged_task<void(size_t)> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task(worker_index);
  }
}

Status ThreadPool::ParallelFor(
    size_t n, const std::function<Status(size_t, size_t)>& fn) {
  if (n == 0) return Status::OK();
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  size_t error_item = n;
  Status error = Status::OK();

  auto drive = [&](size_t worker) {
    while (true) {
      size_t item = next.fetch_add(1, std::memory_order_relaxed);
      if (item >= n || failed.load(std::memory_order_relaxed)) return;
      Status s = FaultProbe(FaultSite::kThreadPoolTask);
      if (s.ok()) {
        // A task that throws must neither wedge the pool nor silently
        // drop its item: the exception becomes a non-OK status, so
        // ParallelFor reports the failure and the worker survives.
        try {
          s = fn(item, worker);
        } catch (const std::exception& e) {
          s = Status::Internal(std::string("task threw: ") + e.what());
        } catch (...) {
          s = Status::Internal("task threw a non-exception object");
        }
      }
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        // Keep the error from the smallest item index so concurrent
        // failures report deterministically.
        if (item < error_item) {
          error_item = item;
          error = std::move(s);
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  // The caller is driver 0. Enqueue the other drivers under one lock and
  // wake every worker at once; per-driver Submit would take the lock and
  // notify once per driver, which shows up when ParallelFor runs in a
  // tight loop (the search frontier issues one small batch per expanded
  // state).
  const size_t drivers = std::min(n, num_threads_);
  std::vector<std::future<void>> futures;
  if (drivers > 1) {
    StartWorkers();
    futures.reserve(drivers - 1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t d = 1; d < drivers; ++d) {
        std::packaged_task<void(size_t)> task(
            [&drive, d](size_t) { drive(d); });
        futures.push_back(task.get_future());
        queue_.push_back(std::move(task));
      }
    }
    cv_.notify_all();
  }
  drive(0);
  for (auto& f : futures) f.wait();
  return error;
}

size_t ThreadPool::DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

}  // namespace etlopt
