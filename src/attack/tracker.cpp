#include "attack/tracker.h"

#include <algorithm>

namespace vcl::attack {
namespace {

constexpr double kMaxSpeed = 40.0;  // m/s bound used for kinematic linking

}  // namespace

TrackingScore TrackingAdversary::analyze(
    std::vector<auth::AirObservation> obs) const {
  TrackingScore score;
  if (obs.size() < 2) return score;
  std::sort(obs.begin(), obs.end(),
            [](const auth::AirObservation& a, const auth::AirObservation& b) {
              return a.time < b.time;
            });

  // Greedy chaining: each observation either extends an existing chain or
  // starts a new one. Chain state: last observation index.
  struct Chain {
    std::size_t last;
  };
  std::vector<Chain> chains;
  // adversary_link[i] = index of the observation the adversary chained i to
  // (or npos).
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> linked_to(obs.size(), kNone);

  for (std::size_t i = 0; i < obs.size(); ++i) {
    const auto& o = obs[i];
    std::size_t best_chain = kNone;
    double best_cost = 1e300;
    for (std::size_t c = 0; c < chains.size(); ++c) {
      const auto& prev = obs[chains[c].last];
      const double dt = o.time - prev.time;
      if (dt <= 0.0) continue;
      const bool id_match =
          o.visible_id != 0 && o.visible_id == prev.visible_id;
      const double dist = geo::distance(o.pos, prev.pos);
      const bool kinematic_ok = dist <= kMaxSpeed * dt + 15.0;
      if (!id_match && !kinematic_ok) continue;
      // Prefer id matches strongly; otherwise nearest continuation.
      const double cost = id_match ? -1.0 : dist;
      if (cost < best_cost) {
        best_cost = cost;
        best_chain = c;
      }
    }
    if (best_chain == kNone) {
      chains.push_back(Chain{i});
    } else {
      linked_to[i] = chains[best_chain].last;
      chains[best_chain].last = i;
    }
  }
  score.chains = chains.size();

  // Score links.
  std::size_t links = 0;
  std::size_t correct_links = 0;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    if (linked_to[i] == kNone) continue;
    ++links;
    if (obs[i].truth == obs[linked_to[i]].truth) ++correct_links;
  }
  score.link_precision =
      links == 0 ? 0.0
                 : static_cast<double>(correct_links) /
                       static_cast<double>(links);

  // Recall: adjacent ground-truth pairs recovered. Build per-vehicle
  // time-ordered lists.
  std::size_t truth_pairs = 0;
  std::size_t recovered = 0;
  std::unordered_map<std::uint64_t, std::size_t> last_of_vehicle;
  for (std::size_t i = 0; i < obs.size(); ++i) {
    auto it = last_of_vehicle.find(obs[i].truth.value());
    if (it != last_of_vehicle.end()) {
      ++truth_pairs;
      if (linked_to[i] == it->second) ++recovered;
    }
    last_of_vehicle[obs[i].truth.value()] = i;
  }
  score.link_recall = truth_pairs == 0
                          ? 0.0
                          : static_cast<double>(recovered) /
                                static_cast<double>(truth_pairs);
  return score;
}

}  // namespace vcl::attack
