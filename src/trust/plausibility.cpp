#include "trust/plausibility.h"

#include <cmath>

namespace vcl::trust {
namespace {

constexpr double kMaxSpeed = 60.0;       // m/s (216 km/h), generous bound
constexpr double kJumpTolerance = 25.0;  // meters of slack on displacement
// Largest |position - predicted position| as a share of the claimed travel.
constexpr double kDirectionTolerance = 0.9;
constexpr SimTime kTrackTimeout = 10.0;  // forget stale tracks

}  // namespace

PlausibilityVerdict PlausibilityChecker::check(const BeaconClaim& claim) {
  ++checked_;
  auto finish = [&](PlausibilityVerdict verdict) {
    if (verdict != PlausibilityVerdict::kPlausible) ++flagged_;
    // The track always advances — even for implausible claims, which keeps
    // a persistent liar producing fresh verdicts instead of being compared
    // against an ancient honest baseline forever.
    tracks_[claim.credential] = claim;
    return verdict;
  };

  if (claim.vel.norm() > kMaxSpeed) {
    return finish(PlausibilityVerdict::kSpeedViolation);
  }

  auto it = tracks_.find(claim.credential);
  if (it == tracks_.end() ||
      claim.time - it->second.time > kTrackTimeout ||
      claim.time <= it->second.time) {
    return finish(PlausibilityVerdict::kPlausible);  // no usable history
  }
  const BeaconClaim& prev = it->second;
  const double dt = claim.time - prev.time;
  const geo::Vec2 displacement = claim.pos - prev.pos;

  // Teleport check against the physical bound.
  if (displacement.norm() >
      kMaxSpeed * dt + kJumpTolerance) {
    return finish(PlausibilityVerdict::kPositionJump);
  }

  // Consistency between displacement and the previously claimed velocity
  // (only meaningful when actually moving).
  const double claimed_travel = prev.vel.norm() * dt;
  if (claimed_travel > 5.0) {
    const geo::Vec2 predicted = prev.pos + prev.vel * dt;
    const double error = geo::distance(predicted, claim.pos);
    if (error > kDirectionTolerance * claimed_travel +
                    kJumpTolerance) {
      return finish(PlausibilityVerdict::kKinematicMismatch);
    }
  }
  return finish(PlausibilityVerdict::kPlausible);
}

}  // namespace vcl::trust
