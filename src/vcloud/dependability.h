// Dependable task execution under *adversarial* failures (paper §III).
//
// The baseline cloud only survives graceful departures: membership politely
// drops a worker and refresh() migrates its encrypted checkpoint. Real
// vehicular resources crash — radios die, vehicles wreck, the elected broker
// vanishes — with no handover opportunity. This module holds the knobs and
// the pure bookkeeping for the hardened execution path:
//
//  * FailureDetector — workers emit heartbeats through the lossy network;
//    the broker declares a worker dead only after `k` missed beats, trading
//    detection latency against false positives (a live worker behind a
//    radio blackout looks exactly like a crashed one).
//  * RetryConfig — ack + timeout + exponential-backoff-with-jitter retry
//    for task dispatch and result return; bounded attempts, then re-queue.
//  * CheckpointConfig — periodic progress checkpoints to the broker, so a
//    crash loses only the delta since the last checkpoint (costed with the
//    handover.h checkpoint model).
//  * SpeculationConfig — speculative replica execution for deadline-bearing
//    tasks: first finisher wins, the loser's work is redundancy overhead.
//
// Everything defaults OFF so the graceful-only seed behaviour is the
// baseline; bench_dependability sweeps these knobs against injected faults.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "util/ids.h"
#include "util/rng.h"
#include "util/time.h"

namespace vcl::vcloud {

// Worker -> broker heartbeat interval: the detector's clock tick.
inline constexpr SimTime kHeartbeatPeriod = 1.0;

struct FailureDetectorConfig {
  bool enabled = false;
  int missed_beats_to_kill = 3;  // k: beats missed before declared dead
};

struct RetryConfig {
  bool enabled = false;
  int max_attempts = 4;       // dispatch attempts before giving up
  SimTime ack_timeout = 0.5;  // base wait before the first retry, seconds
  double backoff = 2.0;       // exponential growth per attempt
  double jitter = 0.5;        // +- fraction of the delay (decorrelates herds)
};

struct CheckpointConfig {
  bool enabled = false;
  SimTime period = 5.0;  // checkpoint cadence per running task, seconds
};

// Replicas launch only while at least one idle worker would remain
// afterwards: speculation must not starve the queue.
struct SpeculationConfig {
  bool enabled = false;
};

struct DependabilityConfig {
  FailureDetectorConfig detector;
  RetryConfig retry;
  CheckpointConfig checkpoint;
  SpeculationConfig speculation;
  // A broker change forces a re-sync of queued/running task metadata to the
  // new broker; dispatch pauses this long (0 = free re-sync, seed behaviour).
  SimTime broker_resync_delay = 0.0;
};

// Every recovery path on: the detector at k = 6 (with ~50 parked
// transmitters contention loses ~0.2 of beats, so k = 6 keeps false kills
// negligible while blackouts still trip it), 5 s checkpoints, retry,
// speculation and a 0.5 s broker re-sync. The chaos episodes and the E22
// "full", E23 and E24 cells all run on this one stack.
[[nodiscard]] DependabilityConfig full_mitigation();

// Delay before retry attempt `attempt` (1-based): ack_timeout grows
// exponentially and is jittered by +-jitter so synchronized losers do not
// retry in lockstep.
[[nodiscard]] SimTime retry_backoff(const RetryConfig& config, int attempt,
                                    Rng& rng);

// Timeout-based failure detection over heartbeats. Pure bookkeeping: the
// cloud feeds in join/beat/leave observations and sweeps for workers whose
// last beat is older than k * period. Which of the swept workers actually
// crashed (vs lost their beats to the channel) is the caller's accounting
// problem — the detector cannot tell, which is the point.
class FailureDetector {
 public:
  explicit FailureDetector(FailureDetectorConfig config = {})
      : config_(config) {}

  // Worker joined (or re-joined): starts a fresh grace window.
  void track(VehicleId v, SimTime now);
  // Heartbeat heard from `v`.
  void observe(VehicleId v, SimTime now);
  // Worker left gracefully: stop tracking.
  void forget(VehicleId v);
  // New broker: the re-synced tables grant everyone a fresh grace window
  // (otherwise a broker change mass-kills workers whose beats it never saw).
  void reset_all(SimTime now);

  [[nodiscard]] bool tracked(VehicleId v) const;
  [[nodiscard]] std::size_t tracked_count() const { return last_heard_.size(); }
  // All tracked ids, sorted (deterministic; the invariant oracle checks
  // tracked ⊆ membership through this).
  [[nodiscard]] std::vector<VehicleId> tracked_ids() const;
  [[nodiscard]] SimTime kill_after() const {
    return kHeartbeatPeriod *
           static_cast<double>(config_.missed_beats_to_kill);
  }

  // Workers silent for more than k * period, sorted by id (deterministic).
  [[nodiscard]] std::vector<VehicleId> sweep(SimTime now) const;

 private:
  FailureDetectorConfig config_;
  std::unordered_map<std::uint64_t, SimTime> last_heard_;
};

}  // namespace vcl::vcloud
