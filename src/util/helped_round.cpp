#include "util/helped_round.h"

#include <algorithm>
#include <cstdint>
#include <thread>
#include <utility>

namespace vcl {
namespace {

// One step of waiting for another thread of the round. The waits are short
// while both sides run (one chunk's worth of work), so it spins; but the
// other side may have lost its CPU, perhaps to this very thread, so every
// few hundred pauses it yields. A yield is a system call: yielding on every
// step of a long wait would add one to the end of each wait.
void backoff(std::uint32_t& spins) {
  constexpr std::uint32_t kSpinsPerYield = 256;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
  if (++spins % kSpinsPerYield == 0) std::this_thread::yield();
}

}  // namespace

ThreadPool* helper_pool() {
  static const std::size_t helpers =
      std::min<std::size_t>(available_cpus() - 1, 3);
  if (helpers == 0) return nullptr;
  static ThreadPool pool(helpers);
  return &pool;
}

HelpedRound::HelpedRound(std::size_t slots, std::size_t helpers)
    : filled_(std::max<std::size_t>(slots, 1)), queued_(helpers) {}

void HelpedRound::begin(std::size_t chunks, Produce produce,
                        ThreadPool& pool) {
  chunks_ = chunks;
  produce_ = std::move(produce);
  next_.store(0);
  released_.store(0);
  for (auto& f : filled_) f.store(0);
  // A helper reads chunks_ and produce_ only after it has seen the round
  // live, so these writes happen before any helper uses them.
  live_.store(true);
  for (std::size_t h = 0; h < queued_.size(); ++h) {
    if (queued_[h].exchange(true)) continue;  // still queued or running
    pool.submit([self = shared_from_this(), h] { self->help(h); });
  }
}

std::size_t HelpedRound::acquire(std::size_t chunk) {
  std::size_t unclaimed = chunk;
  if (next_.compare_exchange_strong(unclaimed, chunk + 1)) return kCaller;
  // A helper claimed the chunk and is producing it now. Meanwhile the
  // caller produces later chunks as a helper would, but leaves one slot of
  // the ring to each helper inside the round: that helper claims it as
  // soon as it finishes its chunk, so taking it would idle the helper while
  // the caller, whose own work no one else can do, produced it.
  const std::size_t slot = chunk % filled_.size();
  std::uint32_t spins = 0;
  for (;;) {
    const std::size_t f = filled_[slot].load(std::memory_order_acquire);
    if (f == chunk + 1) return slot;
    if (f == ((chunk + 1) | kNoFit)) return kCaller;
    const std::size_t ahead =
        filled_.size() - std::min(active_.load(), filled_.size());
    if (produce_next(queued_.size(), ahead)) {
      spins = 0;
    } else {
      backoff(spins);
    }
  }
}

void HelpedRound::release(std::size_t chunk) {
  released_.store(chunk + 1, std::memory_order_release);
}

void HelpedRound::end() {
  // A helper registers in active_ before it checks live_, so once live_ is
  // false, every helper that could still see the round open is counted.
  live_.store(false);
  std::uint32_t spins = 0;
  while (active_.load() != 0) backoff(spins);
}

bool HelpedRound::produce_next(std::size_t helper, std::size_t ahead) {
  const std::size_t slots = filled_.size();
  const std::size_t limit = std::min(
      chunks_, released_.load(std::memory_order_acquire) + ahead);
  std::size_t chunk = next_.load();
  while (chunk < limit) {
    if (next_.compare_exchange_weak(chunk, chunk + 1)) {
      const bool fit = produce_(helper, chunk, chunk % slots);
      filled_[chunk % slots].store(fit ? chunk + 1 : (chunk + 1) | kNoFit,
                                   std::memory_order_release);
      return true;
    }
  }
  return false;
}

void HelpedRound::help(std::size_t helper) {
  active_.fetch_add(1);
  if (live_.load()) {
    const std::size_t slots = filled_.size();
    std::uint32_t spins = 0;
    while (next_.load() < chunks_) {
      if (produce_next(helper, slots)) {
        spins = 0;
        continue;
      }
      // The ring is full: wait for the caller, unless it closed the round.
      if (!live_.load()) break;
      backoff(spins);
    }
  }
  queued_[helper].store(false);
  active_.fetch_sub(1);
}

}  // namespace vcl
