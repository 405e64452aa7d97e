// Discrete-event simulation kernel.
//
// Single-threaded, deterministic: events fire in (time, sequence) order, so
// two runs with the same seed produce identical traces. Components schedule
// closures; periodic activities (mobility steps, beacons) reschedule
// themselves through `schedule_every`.
//
// Profiling (DESIGN.md §6): schedule calls accept an optional static label
// ("net.beacon", "cloud.refresh"). With profiling enabled, run_until
// attributes wall-clock time and event counts to each label and tracks the
// queue-depth high-water mark, answering "which phase of this run burned
// the time". Profiling off (the default) costs one branch per event.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/time.h"

namespace vcl::sim {

class Simulator;

// Handle for cancelling a scheduled event.
class EventHandle {
 public:
  EventHandle() = default;

  [[nodiscard]] bool valid() const { return seq_ != 0; }

 private:
  friend class Simulator;
  explicit EventHandle(std::uint64_t seq) : seq_(seq) {}
  std::uint64_t seq_ = 0;
};

// Per-label kernel profile entry (see Simulator::enable_profiling).
struct ProfileEntry {
  std::string label;
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  // Schedules `fn` at absolute time `at` (>= now, clamped otherwise).
  // `label` must point at storage outliving the simulator (a string
  // literal); it feeds the kernel profiler and is otherwise ignored.
  EventHandle schedule_at(SimTime at, std::function<void()> fn,
                          const char* label = nullptr);
  // Schedules `fn` after a relative delay (>= 0).
  EventHandle schedule_after(SimTime delay, std::function<void()> fn,
                             const char* label = nullptr);
  // Runs `fn` every `period` seconds, first firing after `period` (or at
  // `first` when given). Returns a handle to the recurring activity;
  // cancelling it stops the recurrence.
  EventHandle schedule_every(SimTime period, std::function<void()> fn,
                             SimTime first = -1.0,
                             const char* label = nullptr);

  // Cancels a pending event; cancelled events are skipped when popped.
  void cancel(EventHandle h);
  // One-shot cancellations not yet reaped from the queue (regression
  // surface for the cancel bookkeeping; recurring cancels never park here).
  [[nodiscard]] std::size_t pending_cancellations() const {
    return cancelled_.size();
  }

  // Runs until the queue drains or `until` is reached; returns final time.
  SimTime run_until(SimTime until);
  // Runs exactly one event if any is pending before `until`; returns whether
  // an event was run.
  bool step(SimTime until);

  // --- kernel profiling -------------------------------------------------------
  void enable_profiling(bool on) { profiling_ = on; }
  [[nodiscard]] bool profiling() const { return profiling_; }
  // Entries sorted by wall-clock descending; unlabeled events pool under
  // "(unlabeled)". Empty unless profiling ran.
  [[nodiscard]] std::vector<ProfileEntry> profile() const;
  // Largest queue size observed (tracked unconditionally; a cheap compare).
  [[nodiscard]] std::size_t queue_high_water() const { return high_water_; }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    const char* label;
    std::function<void()> fn;

    // Min-heap by (time, sequence): ties break in scheduling order.
    friend bool operator>(const Event& a, const Event& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  // Binary min-heap by (time, sequence), kept with std::push_heap and
  // std::pop_heap so step() can move the popped event (and its closure)
  // out rather than copy it.
  std::vector<Event> queue_;
  std::unordered_set<std::uint64_t> cancelled_;
  // Live recurring activities, keyed by their handle id. Owning the tick
  // closure here (instead of the closure owning itself) avoids a
  // shared_ptr cycle and makes cancellation free the activity immediately.
  std::unordered_map<std::uint64_t, std::shared_ptr<std::function<void()>>>
      recurring_;

  bool profiling_ = false;
  std::size_t high_water_ = 0;
  // Keyed by label pointer: labels are interned string literals, so pointer
  // identity is label identity and the hot path never hashes a string.
  std::unordered_map<const char*, ProfileEntry> profile_;
};

}  // namespace vcl::sim
