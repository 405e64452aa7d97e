// The thread pool, and the helped round that runs on it: a caller
// consuming chunks in order while helper tasks produce them ahead.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/helped_round.h"
#include "util/thread_pool.h"

namespace vcl {
namespace {

// ---- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, RunsEveryTask) {
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(4);
    futures.reserve(100);
    for (int i = 0; i < 100; ++i) {
      futures.push_back(pool.submit([&count] { ++count; }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { ++count; });
    }
    // No get(): the destructor must still run everything before joining.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ExceptionReachesFutureAndPoolSurvives) {
  ThreadPool pool(2);
  auto bad = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  auto good = pool.submit([] {});
  EXPECT_NO_THROW(good.get());
}

TEST(ThreadPool, IdleWorkerStealsFromBlockedPeer) {
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> started;
  // One worker parks on the blocker; once it has STARTED, the free worker
  // must run every later task on its own. (Without the started-gate the
  // blocker could still be queued behind them.)
  auto blocker = pool.submit([gate, &started] {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 10);
  release.set_value();
  blocker.get();
}

TEST(ThreadPool, BoundedQueueBlocksSubmitUntilSpaceFrees) {
  constexpr std::size_t kTasks = ThreadPool::kQueueCapacity + 8;
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> started;
  auto blocker = pool.submit([gate, &started] {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();
  std::atomic<int> count{0};
  std::atomic<std::size_t> submitted{0};
  // Submitted from a helper thread because submit() must block once
  // kQueueCapacity tasks are pending behind the gated worker.
  std::thread submitter([&] {
    for (std::size_t i = 0; i < kTasks; ++i) {
      pool.submit([&count] { ++count; });
      ++submitted;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // The queue bound throttled the submitter; nothing ran past the gate.
  EXPECT_LE(submitted.load(), ThreadPool::kQueueCapacity);
  EXPECT_EQ(count.load(), 0);
  release.set_value();
  submitter.join();
  blocker.get();
  // Destructor drains the rest.
  while (count.load() < static_cast<int>(kTasks)) std::this_thread::yield();
  EXPECT_EQ(count.load(), static_cast<int>(kTasks));
}

TEST(ThreadPool, AvailableCpusIsAtLeastOne) {
  EXPECT_GE(available_cpus(), 1u);
}

// ---- HelpedRound ------------------------------------------------------------

// Occupies every worker of a pool with a task that runs until release().
class BusyWorkers {
 public:
  explicit BusyWorkers(ThreadPool& pool) : started_(pool.threads()) {
    std::shared_future<void> gate = release_.get_future().share();
    for (std::promise<void>& s : started_) {
      std::future<void> begun = s.get_future();
      tasks_.push_back(pool.submit([gate, &s] {
        s.set_value();
        gate.wait();
      }));
      // Started before the next is submitted: one task per worker, none
      // left queued behind a busy peer.
      begun.wait();
    }
  }
  void release() {
    release_.set_value();
    for (auto& t : tasks_) t.get();
  }

 private:
  std::promise<void> release_;
  std::vector<std::promise<void>> started_;  // outlive the tasks
  std::vector<std::future<void>> tasks_;
};

// Runs one round of `chunks` chunks; returns how many the caller produced.
std::size_t run_round(HelpedRound& round, ThreadPool& pool,
                      std::size_t chunks, const HelpedRound::Produce& produce) {
  round.begin(chunks, produce, pool);
  std::size_t own = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    own += round.acquire(c) == HelpedRound::kCaller;
    round.release(c);
  }
  round.end();
  return own;
}

TEST(HelpedRound, CallerFinishesRoundAloneWhileWorkersBusy) {
  std::atomic<int> produced{0};
  ThreadPool pool(2);
  BusyWorkers busy(pool);
  auto round = std::make_shared<HelpedRound>(4, 2);
  const HelpedRound::Produce produce = [&](std::size_t, std::size_t,
                                           std::size_t) {
    ++produced;
    return true;
  };
  // Both helper tasks are queued behind the busy workers: the caller
  // produces every chunk and end() does not wait for them.
  EXPECT_EQ(run_round(*round, pool, 40, produce), 40u);
  // A second round queues no further tasks while the first ones wait.
  EXPECT_EQ(run_round(*round, pool, 40, produce), 40u);
  EXPECT_EQ(produced.load(), 0);
  busy.release();
}

TEST(HelpedRound, LateHelperFindsRoundFinishedAndReturns) {
  std::atomic<int> produced{0};
  {
    ThreadPool pool(1);
    BusyWorkers busy(pool);
    {
      auto round = std::make_shared<HelpedRound>(2, 1);
      run_round(*round, pool, 8, [&](std::size_t, std::size_t, std::size_t) {
        ++produced;
        return true;
      });
      // The queued helper task now holds the only reference to the round.
    }
    busy.release();
    // The pool's destructor runs the queued helper after its round
    // completed: it finds the round closed and returns.
  }
  EXPECT_EQ(produced.load(), 0);
}

TEST(HelpedRound, HelpersProduceAheadAndCallerConsumesInOrder) {
  constexpr std::size_t kChunks = 64;
  constexpr std::size_t kSlots = 4;
  constexpr std::size_t kHelpers = 3;
  ThreadPool pool(kHelpers);
  auto round = std::make_shared<HelpedRound>(kSlots, kHelpers);
  std::vector<std::size_t> ring(kSlots, 0);
  std::atomic<std::size_t> helped{0};
  // Chunk c holds c * c; every seventh chunk does not fit a slot. Producing
  // a chunk takes a while, on either side, so helpers get ahead of the
  // caller.
  const auto work = [] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  const HelpedRound::Produce produce = [&](std::size_t helper,
                                           std::size_t chunk,
                                           std::size_t slot) {
    work();
    helped += helper < kHelpers;
    if (chunk % 7 == 3) return false;
    ring[slot] = chunk * chunk;
    return true;
  };
  for (int r = 0; r < 50 && helped == 0; ++r) {
    round->begin(kChunks, produce, pool);
    for (std::size_t c = 0; c < kChunks; ++c) {
      const std::size_t slot = round->acquire(c);
      if (slot == HelpedRound::kCaller) {
        work();
      } else {
        EXPECT_NE(c % 7, 3u) << "chunk " << c;
        ASSERT_LT(slot, kSlots);
        EXPECT_EQ(ring[slot], c * c) << "chunk " << c;
      }
      round->release(c);
    }
    round->end();
  }
  EXPECT_GT(helped.load(), 0u);
}

// The work-first caller. The one helper parks inside `produce` on its first
// chunk. The caller, waiting for that chunk, produces the later chunks that
// fit the ring with its own index, but for the one slot it leaves to the
// helper inside the round, and claims none beyond; once the latch opens, it
// consumes every chunk in order and the round ends.
TEST(HelpedRound, CallerProducesAheadWhileHelperIsParked) {
  constexpr std::size_t kChunks = 32;
  constexpr std::size_t kSlots = 4;
  constexpr std::size_t kCallerIndex = 1;  // one helper: index 0
  ThreadPool pool(1);
  auto round = std::make_shared<HelpedRound>(kSlots, 1);
  std::vector<std::size_t> ring(kSlots, 0);
  std::promise<std::size_t> parked_on;  // the chunk the helper parks on
  std::promise<void> latch;
  const std::shared_future<void> opened = latch.get_future().share();
  std::atomic<bool> open{false};
  std::atomic<bool> parked{false};
  // Chunks the caller released, counted before each release() so that it
  // never lags the round's own count.
  std::atomic<std::size_t> released{0};
  std::atomic<std::size_t> beyond_ring{0};
  std::atomic<std::size_t> wrong_index{0};
  std::vector<std::size_t> caller_before_open;  // caller thread only
  std::atomic<std::size_t> filled_ahead{0};
  const std::thread::id caller = std::this_thread::get_id();
  const HelpedRound::Produce produce = [&](std::size_t helper,
                                           std::size_t chunk,
                                           std::size_t slot) {
    beyond_ring += chunk >= released.load() + kSlots;
    const bool on_caller = std::this_thread::get_id() == caller;
    wrong_index += (helper == kCallerIndex) != on_caller;
    if (on_caller && !open.load()) {
      caller_before_open.push_back(chunk);
      ++filled_ahead;
    }
    if (!on_caller && !parked.exchange(true)) {
      parked_on.set_value(chunk);
      opened.wait();
    }
    ring[slot] = chunk * chunk + 1;
    return true;
  };

  round->begin(kChunks, produce, pool);
  // The caller starts only once the helper holds a chunk: the first one.
  EXPECT_EQ(parked_on.get_future().get(), 0u);
  std::thread opener([&] {
    // Once the caller has filled its share of the ring (or after 10 s), it
    // gets 50 ms more, long enough for a caller that claimed beyond its
    // share to show it, before the helper goes on.
    for (int i = 0; i < 10000 && filled_ahead.load() < kSlots - 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    open = true;
    latch.set_value();
  });
  std::size_t from_ring = 0;
  for (std::size_t c = 0; c < kChunks; ++c) {
    const std::size_t slot = round->acquire(c);
    if (slot != HelpedRound::kCaller) {
      // In order: the slot holds chunk c.
      EXPECT_LT(slot, kSlots);
      EXPECT_EQ(ring[slot % kSlots], c * c + 1) << "chunk " << c;
      ++from_ring;
    }
    released = c + 1;
    round->release(c);
  }
  // The round ends once the latch has opened and the helper is out.
  round->end();
  opener.join();

  // While the helper was parked on chunk 0, the caller produced chunks 1
  // and 2 into the ring, and no other: slot 3 is the helper's.
  EXPECT_EQ(caller_before_open, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(beyond_ring.load(), 0u);
  EXPECT_EQ(wrong_index.load(), 0u);
  EXPECT_GE(from_ring, kSlots - 1);  // chunk 0 from the helper, 1, 2 its own
}

}  // namespace
}  // namespace vcl
