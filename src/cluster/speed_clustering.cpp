#include "cluster/speed_clustering.h"

namespace vcl::cluster {
namespace {

constexpr double kSpeedWeight = 1.0;   // penalty per m/s of relative speed
constexpr double kDegreeWeight = 0.2;  // reward per heard neighbor
constexpr double kHysteresis = 0.5;    // incumbent-head score bonus

}  // namespace

void SpeedClustering::update() {
  std::unordered_map<std::uint64_t, double> scores;
  for (const auto& [vid, v] : net_.traffic().vehicles()) {
    const auto& neighbors = net_.neighbors(v.id);
    double rel_speed = 0.0;
    for (const net::NeighborEntry& n : neighbors) {
      rel_speed += (v.vel - n.vel).norm();
    }
    if (!neighbors.empty()) {
      rel_speed /= static_cast<double>(neighbors.size());
    }
    scores[vid] = -kSpeedWeight * rel_speed +
                  kDegreeWeight * static_cast<double>(neighbors.size());
  }
  elect_by_score(scores, kHysteresis);
}

}  // namespace vcl::cluster
