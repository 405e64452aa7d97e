// Kinematic plausibility checking of beacon content (paper §III.D: "a
// vehicle should be able to verify whether the received information about
// another vehicle's speed, direction and location is correct").
//
// Each received beacon claims (position, velocity, time). The checker keeps
// a short track per sender credential and flags physical impossibilities:
//   * speed bound:    claimed speed beyond anything road vehicles do
//     (60 m/s, 216 km/h);
//   * position jump:  displacement between consecutive beacons exceeding
//     that bound x dt by more than 25 m (teleportation);
//   * kinematic mismatch: claimed velocity pointing somewhere entirely
//     different from the observed displacement.
// A track older than 10 s is stale and gives no verdict.
// This is content validation at the single-message level — the layer below
// the event-cluster validators in trust/validators.h.
#pragma once

#include <unordered_map>

#include "geo/vec2.h"
#include "util/ids.h"
#include "util/time.h"

namespace vcl::trust {

struct BeaconClaim {
  std::uint64_t credential = 0;
  geo::Vec2 pos;
  geo::Vec2 vel;
  SimTime time = 0.0;
};

enum class PlausibilityVerdict : std::uint8_t {
  kPlausible,
  kSpeedViolation,     // claimed speed beyond the physical bound
  kPositionJump,       // moved further than physics allows since last beacon
  kKinematicMismatch,  // displacement disagrees with claimed velocity
};

class PlausibilityChecker {
 public:
  // Checks a claim against the sender's track and updates the track.
  PlausibilityVerdict check(const BeaconClaim& claim);

  [[nodiscard]] std::size_t checked() const { return checked_; }
  [[nodiscard]] std::size_t flagged() const { return flagged_; }
  [[nodiscard]] std::size_t tracked_senders() const { return tracks_.size(); }

 private:
  std::unordered_map<std::uint64_t, BeaconClaim> tracks_;
  std::size_t checked_ = 0;
  std::size_t flagged_ = 0;
};

}  // namespace vcl::trust
