// One round of work cut into chunks that the calling thread consumes in
// order, while helper tasks on a ThreadPool produce chunks ahead of it
// (DESIGN.md §4 "World-model round" and "Prefill"; the users are the
// beacon round's reception stage and the prefill's route searches, both on
// helper_pool()).
//
// Every chunk is produced into a ring slot, chunk c into slot c % slots, and
// the caller walks chunks 0, 1, ..., chunks - 1 through the ring. Helpers
// claim chunks with one atomic counter, at most `slots` chunks ahead of the
// caller, so the ring bounds the work done ahead and its memory. The caller
// produces, into its slot and with its own index (`helpers`, one past the
// helpers' own), a chunk nobody has claimed and one a helper reported as not
// fitting its slot; on that index a produce must succeed, growing the slot if
// it needs to. A round begun without a pool has no helpers: the caller
// produces every chunk, through the same loop. Producing a chunk must be a
// pure function of inputs that stay fixed during the round; then what the
// caller consumes cannot depend on which thread produced it.
//
// The caller does not idle while there is work no helper would take up.
// While a helper still produces the chunk the caller wants, the caller
// claims and produces the next unclaimed chunk that fits the ring, into its
// slot, as a helper would. It leaves one slot of the ring to each helper
// inside the round, which would claim it as soon as its own chunk is done.
// So progress never depends on a helper being scheduled: the caller waits
// only for chunks that helpers inside the round have claimed, and the end
// of the round waits only for those helpers. A helper task holds the round
// through a shared_ptr: one that starts after the round ended finds it
// closed and returns without calling `produce`. A round keeps at most one
// task per helper index queued on a pool, so a pool busy with other work
// collects no backlog, and index `h` may use scratch that belongs to it
// alone.
//
// Caller's side (one thread; own the round through a shared_ptr):
//
//   const HelpedRound::Open open = round->begin(chunks, produce, pool);
//   for (std::size_t c = 0; c < chunks; ++c) {
//     const std::size_t slot = round->acquire(c);
//     ...  // read chunk c from slot `slot`
//     round->release(c);
//   }
//   // `open` ends the round when it leaves scope
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
// helper_threads() counts them without creating them; helper_pool()
// creates them on its first call, and is nullptr when there are none.
[[nodiscard]] std::size_t helper_threads();
[[nodiscard]] ThreadPool* helper_pool();

class HelpedRound : public std::enable_shared_from_this<HelpedRound> {
 public:
  // Produces chunk `chunk` into ring slot `slot` with the scratch of index
  // `helper`: a helper's, or `helpers` on the calling thread. Returns false
  // when the chunk does not fit the slot, which only a helper may do. On a
  // helper it must not throw or allocate, and it writes nothing but the
  // slot and the index's scratch.
  using Produce =
      std::function<bool(std::size_t helper, std::size_t chunk,
                         std::size_t slot)>;

  // Ends the round it was returned for when it leaves scope, also before
  // every chunk was acquired and on exceptions: end() returns once no helper
  // is inside the round.
  struct End {
    void operator()(HelpedRound* round) const { round->end(); }
  };
  using Open = std::unique_ptr<HelpedRound, End>;

  // A ring of `slots` slots served by up to `helpers` helper tasks a round
  // and the caller; `produce` sees indices 0 to `helpers`.
  HelpedRound(std::size_t slots, std::size_t helpers);

  // Opens a round of `chunks` chunks and, given a pool (which has `helpers`
  // threads), queues one helper task on it for each helper index whose
  // previous task has finished.
  [[nodiscard]] Open begin(std::size_t chunks, Produce produce,
                           ThreadPool* pool);
  // The ring slot that holds chunk `chunk`, once it is ready. Waiting for
  // it, the caller produces later chunks. Chunks are acquired in order;
  // each is released before the next is acquired.
  std::size_t acquire(std::size_t chunk);
  // Hands the chunk's ring slot back to the helpers.
  void release(std::size_t chunk);

 private:
  // One helper task: claims and produces chunks while any is unclaimed.
  void help(std::size_t helper);
  // Claims the lowest unclaimed chunk if it is fewer than `ahead` chunks
  // past the released ones (at most the ring's slots) and produces it with
  // the scratch of index `helper`; false when there is none.
  bool produce_next(std::size_t helper, std::size_t ahead);
  // Produces chunk `chunk` into its slot on the calling thread.
  void produce_own(std::size_t chunk);
  // Closes the round; returns once no helper is inside it.
  void end();

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
