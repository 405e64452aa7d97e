#include "cluster/fuzzy_clustering.h"

#include <algorithm>

namespace vcl::cluster {
namespace {

constexpr double kSpeedDevFull = 8.0;  // m/s mapped to membership 0
constexpr double kCentralityFull = 250.0;  // mean neighbor distance mapped to 0
constexpr double kDegreeFull = 12.0;  // neighbor count mapped to membership 1
constexpr double kHysteresis = 0.1;   // scores live in [0,1]

}  // namespace

double membership_low(double x, double full_at) {
  if (full_at <= 0.0) return 0.0;
  return std::clamp(1.0 - x / full_at, 0.0, 1.0);
}

double membership_high(double x, double full_at) {
  if (full_at <= 0.0) return 1.0;
  return std::clamp(x / full_at, 0.0, 1.0);
}

double FuzzyClustering::suitability(double speed_dev, double mean_dist,
                                    double degree) const {
  const double stable = membership_low(speed_dev, kSpeedDevFull);
  const double central = membership_low(mean_dist, kCentralityFull);
  const double connected = membership_high(degree, kDegreeFull);

  // Rule base (min = AND, max = OR aggregation):
  //  R1: stable AND central            -> strongly suitable
  //  R2: stable AND connected          -> suitable
  //  R3: NOT stable                    -> unsuitable (suppresses the rest)
  const double r1 = std::min(stable, central);
  const double r2 = std::min(stable, connected);
  const double unsuitable = 1.0 - stable;
  const double suitable = std::max(r1, r2);
  // Centroid-style defuzzification over {suitable:1, unsuitable:0}.
  const double denom = suitable + unsuitable;
  return denom > 0.0 ? suitable / denom : 0.0;
}

void FuzzyClustering::update() {
  std::unordered_map<std::uint64_t, double> scores;
  for (const auto& [vid, v] : net_.traffic().vehicles()) {
    const auto& neighbors = net_.neighbors(v.id);
    double rel_speed = 0.0;
    double mean_dist = 0.0;
    for (const net::NeighborEntry& n : neighbors) {
      rel_speed += (v.vel - n.vel).norm();
      mean_dist += geo::distance(v.pos, n.pos);
    }
    if (!neighbors.empty()) {
      rel_speed /= static_cast<double>(neighbors.size());
      mean_dist /= static_cast<double>(neighbors.size());
    }
    scores[vid] = suitability(rel_speed, mean_dist,
                              static_cast<double>(neighbors.size()));
  }
  elect_by_score(scores, kHysteresis);
}

}  // namespace vcl::cluster
