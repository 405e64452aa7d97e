#include "obs/flight_recorder.h"

#include <algorithm>

namespace vcl::obs {

const char* to_string(FlightCategory c) {
  switch (c) {
    case FlightCategory::kTask: return "task";
    case FlightCategory::kDetector: return "detector";
    case FlightCategory::kLease: return "lease";
    case FlightCategory::kQuorum: return "quorum";
    case FlightCategory::kDag: return "dag";
    case FlightCategory::kFault: return "fault";
    case FlightCategory::kAuth: return "auth";
    case FlightCategory::kAttack: return "attack";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder() {
  for (Ring& r : rings_) r.slots.resize(kPerCategory);
}

void FlightRecorder::record(SimTime t, FlightCategory cat, const char* name,
                            std::uint64_t a, std::uint64_t b, double x) {
  Ring& r = rings_[static_cast<std::size_t>(cat)];
  FlightEvent& e = r.slots[r.head];
  e.t = t;
  e.cat = cat;
  e.name = name;
  e.a = a;
  e.b = b;
  e.x = x;
  e.seq = seq_++;
  r.head = (r.head + 1) % r.slots.size();
  if (r.count < r.slots.size()) ++r.count;
  ++r.recorded;
  ++recorded_;
}

std::uint64_t FlightRecorder::overwritten() const {
  std::uint64_t lost = 0;
  for (const Ring& r : rings_) lost += r.recorded - r.count;
  return lost;
}

std::vector<FlightEvent> FlightRecorder::tail() const {
  std::vector<FlightEvent> merged;
  std::size_t total = 0;
  for (const Ring& r : rings_) total += r.count;
  merged.reserve(total);
  for (const Ring& r : rings_) {
    const std::size_t capacity = r.slots.size();
    const std::size_t start = (r.head + capacity - r.count) % capacity;
    for (std::size_t i = 0; i < r.count; ++i) {
      merged.push_back(r.slots[(start + i) % capacity]);
    }
  }
  // The global sequence number is unique, so the merge is a strict total
  // order regardless of per-ring wrap state.
  std::sort(merged.begin(), merged.end(),
            [](const FlightEvent& l, const FlightEvent& r) {
              return l.seq < r.seq;
            });
  return merged;
}

}  // namespace vcl::obs
