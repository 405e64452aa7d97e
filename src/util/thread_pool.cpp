#include "util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <utility>

namespace vcl {

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
  }
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

ThreadPool::ThreadPool(std::size_t threads, std::size_t queue_capacity)
    : queues_(std::max<std::size_t>(threads, 1)),
      queue_capacity_(std::max<std::size_t>(queue_capacity, 1)) {
  workers_.reserve(queues_.size());
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_space_.wait(lock, [this] { return pending_ < queue_capacity_; });
    queues_[next_queue_].push_back(std::move(task));
    next_queue_ = (next_queue_ + 1) % queues_.size();
    ++pending_;
  }
  cv_work_.notify_one();
  return future;
}

ThreadPool::Stats ThreadPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool ThreadPool::take_task(std::size_t index,
                           std::packaged_task<void()>& out) {
  // Own deque first, newest task (LIFO keeps a worker on related work)...
  if (!queues_[index].empty()) {
    out = std::move(queues_[index].back());
    queues_[index].pop_back();
    return true;
  }
  // ...then steal the oldest task from the next busy neighbour (FIFO steal
  // takes the work its owner would reach last).
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    auto& victim = queues_[(index + k) % queues_.size()];
    if (!victim.empty()) {
      out = std::move(victim.front());
      victim.pop_front();
      ++stats_.stolen;
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t index) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    std::packaged_task<void()> task;
    if (take_task(index, task)) {
      --pending_;
      ++stats_.executed;
      cv_space_.notify_one();
      lock.unlock();
      task();  // packaged_task captures exceptions into the future
      lock.lock();
      continue;
    }
    if (stop_) return;  // stop only once every queue is drained
    cv_work_.wait(lock);
  }
}

}  // namespace vcl
