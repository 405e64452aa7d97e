// Tracking adversary: links pseudonymous air observations into vehicle
// trajectories (paper §III "privacy breach: tracking movements of
// vehicles").
//
// Two linking signals: (1) identifier reuse — same visible id implies same
// vehicle; (2) kinematic continuity — an observation within
// 40 m/s x dt + 15 m of a trajectory head is chained to it even across an
// id change. Scoring
// compares chains against ground truth.
#pragma once

#include <vector>

#include "auth/privacy_metrics.h"

namespace vcl::attack {

struct TrackingScore {
  // Fraction of adjacent same-vehicle observation pairs the adversary
  // correctly chained.
  double link_recall = 0.0;
  // Fraction of the adversary's links that are actually same-vehicle.
  double link_precision = 0.0;
  std::size_t chains = 0;
};

class TrackingAdversary {
 public:
  // Consumes time-ordered observations and scores the reconstruction.
  [[nodiscard]] TrackingScore analyze(
      std::vector<auth::AirObservation> observations) const;
};

}  // namespace vcl::attack
