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

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = std::max<std::size_t>(threads, 1);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
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
    cv_space_.wait(lock, [this] { return queue_.size() < kQueueCapacity; });
    queue_.push_back(std::move(task));
  }
  cv_work_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (!queue_.empty()) {
      std::packaged_task<void()> task = std::move(queue_.front());
      queue_.pop_front();
      cv_space_.notify_one();
      lock.unlock();
      task();  // packaged_task captures exceptions into the future
      lock.lock();
      continue;
    }
    if (stop_) return;  // stop only once the queue is drained
    cv_work_.wait(lock);
  }
}

}  // namespace vcl
