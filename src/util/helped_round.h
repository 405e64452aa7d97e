// One round of work cut into chunks that the calling thread consumes in
// order, while helper tasks on a ThreadPool produce chunks ahead of it
// (DESIGN.md §4 "World-model round" and "Prefill"; the users are the
// beacon round's reception stage and the prefill's route searches, both on
// helper_pool()).
//
// The caller walks chunks 0, 1, ..., chunks - 1. For each one it either
// finds the chunk produced in a ring slot, or produces it itself: a chunk
// nobody has claimed yet, or one that did not fit its slot. Helpers claim
// chunks with one atomic counter, at most `slots` chunks ahead of the
// caller, so the ring bounds the work done ahead and its memory. Producing
// a chunk must be a pure function of inputs that stay fixed during the
// round; then what the caller consumes cannot depend on which thread
// produced it.
//
// The caller does not idle while there is work no helper would take up.
// While a helper still produces the chunk the caller wants, the caller
// claims and produces the next unclaimed chunk that fits the ring, into its
// slot, as a helper would (with the scratch of index `helpers`, one past
// the helpers' own). It leaves one slot of the ring to each helper inside
// the round, which would claim it as soon as its own chunk is done. So
// progress never depends on a helper being scheduled: the caller waits only
// for chunks that helpers inside the round have claimed, and `end` waits
// only for those helpers. A helper task holds the round through a
// shared_ptr: one that starts after the round ended finds it closed and
// returns without calling `produce`. A round keeps at most one task per
// helper index queued on the pool, so a pool busy with other work collects
// no backlog, and index `h` may use scratch that belongs to it alone.
//
// Caller's side (one thread; own the round through a shared_ptr):
//
//   round->begin(chunks, produce, pool);
//   for (std::size_t c = 0; c < chunks; ++c) {
//     const std::size_t slot = round->acquire(c);
//     ...  // slot == HelpedRound::kCaller: produce chunk c here
//     round->release(c);
//   }
//   round->end();
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "util/thread_pool.h"

namespace vcl {

// The process's helper threads, shared by every helped round: one fewer
// than the CPUs the process may run on (available_cpus), at most 3.
// Created by the first call; nullptr when there are none.
[[nodiscard]] ThreadPool* helper_pool();

class HelpedRound : public std::enable_shared_from_this<HelpedRound> {
 public:
  // Produces chunk `chunk` into ring slot `slot` with the scratch of index
  // `helper`: a helper's, or `helpers` on the calling thread. Returns false
  // when the chunk does not fit the slot. It runs on helper threads: it
  // must not throw or allocate, and it writes nothing but the slot and the
  // index's scratch.
  using Produce =
      std::function<bool(std::size_t helper, std::size_t chunk,
                         std::size_t slot)>;

  // acquire(): the caller produces the chunk itself.
  static constexpr std::size_t kCaller = static_cast<std::size_t>(-1);

  // A ring of `slots` slots served by up to `helpers` helper tasks a round
  // and the caller; `produce` sees indices 0 to `helpers`.
  HelpedRound(std::size_t slots, std::size_t helpers);

  // Opens a round of `chunks` chunks and queues one helper task on `pool`
  // for each helper index whose previous task has finished.
  void begin(std::size_t chunks, Produce produce, ThreadPool& pool);
  // Where chunk `chunk` is, once it is ready: its ring slot, or kCaller when
  // nobody claimed it or it did not fit. Waiting for it, the caller
  // produces later chunks. Chunks are acquired in order; each is released
  // before the next is acquired.
  std::size_t acquire(std::size_t chunk);
  // Hands the chunk's ring slot back to the helpers.
  void release(std::size_t chunk);
  // Closes the round, also before every chunk was acquired (the caller
  // must close it on every path, exceptions included); returns once no
  // helper is inside it.
  void end();

 private:
  // One helper task: claims and produces chunks while any is unclaimed.
  void help(std::size_t helper);
  // Claims the lowest unclaimed chunk if it is fewer than `ahead` chunks
  // past the released ones (at most the ring's slots) and produces it with
  // the scratch of index `helper`; false when there is none.
  bool produce_next(std::size_t helper, std::size_t ahead);

  // filled_ value of a chunk that did not fit its slot: (chunk + 1) | kNoFit.
  static constexpr std::size_t kNoFit =
      static_cast<std::size_t>(1) << (8 * sizeof(std::size_t) - 1);

  std::atomic<bool> live_{false};
  std::atomic<std::size_t> active_{0};    // helper tasks inside the round
  std::atomic<std::size_t> next_{0};      // lowest unclaimed chunk
  std::atomic<std::size_t> released_{0};  // chunks the caller is done with
  // Per slot: chunk + 1 of the chunk it holds once produced, 0 when none.
  std::vector<std::atomic<std::size_t>> filled_;
  // Per helper index: a task is queued or running.
  std::vector<std::atomic<bool>> queued_;
  // Written by the caller only while no helper is inside the round.
  std::size_t chunks_ = 0;
  Produce produce_;
};

}  // namespace vcl
