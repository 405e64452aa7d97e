// Thread pool (DESIGN.md §7). Two users: the experiment engine runs
// replications on it, and helped rounds (the beacon round's reception stage
// and the prefill's route searches) run their helper tasks on one
// process-wide instance, helper_pool() in util/helped_round.h.
//
// The pool optimizes for correctness and clean shutdown rather than
// nanosecond dispatch: one FIFO queue, bounded (submit blocks while
// kQueueCapacity tasks are already pending), and exception propagation
// through the returned future — a task that throws surfaces at the
// caller's `get()`, never as a dead worker.
//
// Determinism note: the pool schedules work in a nondeterministic order by
// design. Callers that need reproducible aggregates (exp::replicate) must
// write results into per-task slots and reduce them in a fixed order after
// all futures resolve.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace vcl {

// CPUs this process may run on (its affinity mask, so `taskset` limits it),
// at least 1.
[[nodiscard]] std::size_t available_cpus();

class ThreadPool {
 public:
  // Pending tasks at which submit() blocks. vcl_chaos can queue up to 10^6
  // episodes; the bound keeps their closures from piling up.
  static constexpr std::size_t kQueueCapacity = 1024;

  explicit ThreadPool(std::size_t threads);
  // Runs every queued task to completion, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `fn`; blocks while the pool already holds kQueueCapacity
  // pending tasks. The future rethrows whatever the task threw.
  std::future<void> submit(std::function<void()> fn);

  [[nodiscard]] std::size_t threads() const { return workers_.size(); }

 private:
  void worker_loop();

  // One mutex guards the queue: tasks are whole simulator runs or one
  // helped round's share of helper work, so queue contention is irrelevant
  // next to shutdown/blocking correctness.
  std::mutex mutex_;
  std::condition_variable cv_work_;   // workers wait here for tasks
  std::condition_variable cv_space_;  // submit waits here when full
  std::deque<std::packaged_task<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace vcl
