#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <utility>

namespace vcl::sim {

EventHandle Simulator::schedule_at(SimTime at, std::function<void()> fn,
                                   const char* label) {
  const std::uint64_t seq = next_seq_++;
  queue_.push_back(Event{std::max(at, now_), seq, label, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
  high_water_ = std::max(high_water_, queue_.size());
  return EventHandle{seq};
}

EventHandle Simulator::schedule_after(SimTime delay, std::function<void()> fn,
                                      const char* label) {
  return schedule_at(now_ + std::max(delay, 0.0), std::move(fn), label);
}

EventHandle Simulator::schedule_every(SimTime period, std::function<void()> fn,
                                      SimTime first, const char* label) {
  const std::uint64_t rid = next_seq_++;  // identity of the recurrence
  auto shared_fn = std::make_shared<std::function<void()>>(std::move(fn));
  // The tick looks itself up in recurring_ rather than capturing itself:
  // cancellation is the map erase, and there is no ownership cycle. Each
  // queued occurrence holds only a shared_ptr to the tick, so a period
  // re-schedules a pointer instead of copying the closure; it also keeps
  // the tick alive while it runs, should fn cancel its own recurrence.
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [this, rid, period, label, shared_fn]() {
    if (recurring_.find(rid) == recurring_.end()) return;  // cancelled
    (*shared_fn)();
    auto it = recurring_.find(rid);  // fn may have cancelled the recurrence
    if (it != recurring_.end()) {
      schedule_after(period, [tick = it->second] { (*tick)(); }, label);
    }
  };
  recurring_[rid] = tick;
  const SimTime start = first >= 0.0 ? first : now_ + period;
  schedule_at(start, [tick] { (*tick)(); }, label);
  return EventHandle{rid};
}

void Simulator::cancel(EventHandle h) {
  if (!h.valid()) return;
  // A recurring handle's rid never appears in the event queue (its ticks
  // carry their own seqs), so parking it in cancelled_ would leak the entry
  // forever; erasing the recurrence is both necessary and sufficient.
  if (recurring_.erase(h.seq_) > 0) return;
  cancelled_.insert(h.seq_);
}

bool Simulator::step(SimTime until) {
  while (!queue_.empty()) {
    if (queue_.front().at > until) return false;
    std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
    Event ev = std::move(queue_.back());
    queue_.pop_back();
    if (!cancelled_.empty() && cancelled_.erase(ev.seq) != 0) {
      continue;  // skip cancelled event
    }
    now_ = ev.at;
    ++processed_;
    if (profiling_) {
      const auto start = std::chrono::steady_clock::now();
      ev.fn();
      const auto end = std::chrono::steady_clock::now();
      ProfileEntry& entry = profile_[ev.label];
      ++entry.events;
      entry.wall_seconds +=
          std::chrono::duration<double>(end - start).count();
    } else {
      ev.fn();
    }
    return true;
  }
  return false;
}

SimTime Simulator::run_until(SimTime until) {
  while (step(until)) {
  }
  now_ = std::max(now_, until);
  return now_;
}

std::vector<ProfileEntry> Simulator::profile() const {
  std::vector<ProfileEntry> out;
  out.reserve(profile_.size());
  for (const auto& [label, entry] : profile_) {
    ProfileEntry e = entry;
    e.label = label != nullptr ? label : "(unlabeled)";
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              if (a.wall_seconds != b.wall_seconds) {
                return a.wall_seconds > b.wall_seconds;
              }
              return a.label < b.label;
            });
  return out;
}

}  // namespace vcl::sim
