// FlightRecorder: always-on, fixed-memory forensic event log (DESIGN.md
// §12).
//
// The trace recorder answers "what happened?" only when telemetry was
// switched on before the run; a production incident rarely grants that
// favor. The flight recorder is the black box that is ALWAYS running: a
// small per-category ring of key lifecycle events — task terminal
// transitions, failure-detector evictions, lease expiries, quorum
// degradations, DAG backup launches, fault window edges — recorded at the
// cost of one branch plus one ring write per event. It never touches an
// RNG stream, never allocates after construction, and never changes
// scheduling, so a run with the recorder attached is bit-identical to one
// without (and across any `--jobs` level: each system owns its recorder).
//
// Per-category rings (rather than one shared ring) keep a chatty category
// (task terminals) from evicting the rare one that explains the incident
// (the single lease expiry an hour ago). A global sequence number stamped
// on every event lets `tail()` merge the rings back into one totally
// ordered history — the ordering ties at equal sim time are resolved by
// record order, which is itself deterministic.
//
// The payload is deliberately tiny and flat: two integer ids + one double.
// Names are string literals owned by the call sites (same contract as
// TraceRecorder fields), so recording is allocation-free.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/time.h"

namespace vcl::obs {

enum class FlightCategory : std::uint8_t {
  kTask = 0,      // task.complete / task.expire / task.fail
  kDetector = 1,  // detector.evict (crash kill or false positive)
  kLease = 2,     // lease.expire
  kQuorum = 3,    // quorum.read.degraded / quorum.read.failed / write.failed
  kDag = 4,       // dag.backup / dag.graph.fail
  kFault = 5,     // fault.* injections + blackout window edges
  kAuth = 6,      // auth.revoke / auth.crl.deliver / auth.evict decisions
  kAttack = 7,    // attack.sybil.* / attack.replay.* admission outcomes
};
inline constexpr std::size_t kFlightCategoryCount = 8;

[[nodiscard]] const char* to_string(FlightCategory c);

struct FlightEvent {
  SimTime t = 0.0;
  FlightCategory cat = FlightCategory::kTask;
  const char* name = "";
  std::uint64_t a = 0;  // primary id (task / worker / object / graph)
  std::uint64_t b = 0;  // secondary id (worker / holder / node / flag)
  double x = 0.0;       // one numeric payload (latency, duration, ...)
  std::uint64_t seq = 0;  // global record order across all categories
};

class FlightRecorder {
 public:
  // 256 events x 8 categories x ~56 bytes ≈ 115 KiB per system: cheap
  // enough to leave on for every run, deep enough that the causal chain
  // behind a violation (fault → detection → recovery → failure) survives
  // even when one category is chatty.
  static constexpr std::size_t kPerCategory = 256;

  FlightRecorder();

  void record(SimTime t, FlightCategory cat, const char* name,
              std::uint64_t a = 0, std::uint64_t b = 0, double x = 0.0);

  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t recorded(FlightCategory c) const {
    return ring(c).recorded;
  }
  [[nodiscard]] std::uint64_t overwritten() const;
  [[nodiscard]] std::uint64_t overwritten(FlightCategory c) const {
    const Ring& r = ring(c);
    return r.recorded - r.count;
  }

  // Retained events merged across every category, oldest first (global
  // sequence order). This is the "flight-recorder tail" an incident bundle
  // snapshots.
  [[nodiscard]] std::vector<FlightEvent> tail() const;

 private:
  struct Ring {
    std::vector<FlightEvent> slots;  // kPerCategory
    std::size_t head = 0;   // next write slot
    std::size_t count = 0;  // retained (<= capacity)
    std::uint64_t recorded = 0;
  };

  [[nodiscard]] const Ring& ring(FlightCategory c) const {
    return rings_[static_cast<std::size_t>(c)];
  }

  std::array<Ring, kFlightCategoryCount> rings_;
  std::uint64_t recorded_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace vcl::obs
