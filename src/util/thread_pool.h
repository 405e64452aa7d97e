// Work-stealing thread pool (DESIGN.md §7). Two users: the experiment
// engine runs replications on it, and helped rounds (the beacon round's
// reception stage and the prefill's route searches) run their helper tasks
// on one process-wide instance, helper_pool() in util/helped_round.h.
//
// The pool optimizes for correctness and clean shutdown rather than
// nanosecond dispatch: per-worker deques with LIFO pop / FIFO steal, a
// bounded total queue (submit blocks when `queue_capacity` tasks are already
// pending), and exception propagation through the returned future — a task
// that throws surfaces at the caller's `get()`, never as a dead worker.
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
  struct Stats {
    std::size_t executed = 0;  // tasks run to completion (including throwers)
    std::size_t stolen = 0;    // tasks a worker took from another's deque
  };

  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit ThreadPool(std::size_t threads,
                      std::size_t queue_capacity = kDefaultCapacity);
  // Runs every queued task to completion, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `fn`; blocks while the pool already holds `queue_capacity`
  // pending tasks. The future rethrows whatever the task threw.
  std::future<void> submit(std::function<void()> fn);

  [[nodiscard]] std::size_t threads() const { return workers_.size(); }
  [[nodiscard]] Stats stats() const;

 private:
  void worker_loop(std::size_t index);
  // Pops the worker's own newest task, else steals another's oldest.
  bool take_task(std::size_t index, std::packaged_task<void()>& out);

  // One mutex guards every deque: tasks are whole simulator runs or one
  // helped round's share of helper work, so queue contention is irrelevant
  // next to shutdown/blocking correctness.
  mutable std::mutex mutex_;
  std::condition_variable cv_work_;   // workers wait here for tasks
  std::condition_variable cv_space_;  // submit waits here when full
  std::vector<std::deque<std::packaged_task<void()>>> queues_;
  std::vector<std::thread> workers_;
  std::size_t queue_capacity_;
  std::size_t pending_ = 0;      // queued, not yet started
  std::size_t next_queue_ = 0;   // round-robin submit target
  bool stop_ = false;
  Stats stats_;
};

}  // namespace vcl
