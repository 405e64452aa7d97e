#include "cluster/passive_clustering.h"

namespace vcl::cluster {
namespace {

constexpr int kMaxHops = 2;
constexpr double kHysteresis = 0.5;  // incumbent-head priority bonus

}  // namespace

void PassiveClustering::update() {
  prune_departed();
  const auto& vehicles = net_.traffic().vehicles();

  // Priority: stability = negative mean relative speed, with the incumbent
  // hysteresis and id as the final tiebreaker.
  std::unordered_map<std::uint64_t, double> priority;
  for (const auto& [vid, v] : vehicles) {
    const auto& neighbors = net_.neighbors(v.id);
    double rel = 0.0;
    for (const net::NeighborEntry& n : neighbors) rel += (v.vel - n.vel).norm();
    if (!neighbors.empty()) rel /= static_cast<double>(neighbors.size());
    double p = -rel;
    auto cur = assignments().find(vid);
    if (cur != assignments().end() && cur->second.role == ClusterRole::kHead) {
      p += kHysteresis;
    }
    priority[vid] = p;
  }

  // Neighbor-following: follow the best-priority neighbor that beats one's
  // own priority; local maxima follow themselves.
  std::unordered_map<std::uint64_t, VehicleId> follows;
  for (const auto& [vid, v] : vehicles) {
    VehicleId target = v.id;
    double best = priority[vid];
    for (const net::NeighborEntry& n : net_.neighbors(v.id)) {
      auto it = priority.find(n.id.value());
      if (it == priority.end()) continue;
      if (it->second > best ||
          (it->second == best && n.id.value() < target.value())) {
        best = it->second;
        target = n.id;
      }
    }
    follows[vid] = target;
  }

  // Resolve chains up to max_hops; vehicles whose chain does not reach a
  // fixed point within the bound become their own head.
  for (const auto& [vid, v] : vehicles) {
    VehicleId at = v.id;
    bool reached = false;
    for (int hop = 0; hop <= kMaxHops; ++hop) {
      const VehicleId next = follows[at.value()];
      if (next == at) {
        reached = true;
        break;
      }
      at = next;
    }
    if (reached && !(at == v.id)) {
      assign(v.id, at, ClusterRole::kMember);
    } else if (reached) {
      assign(v.id, v.id, ClusterRole::kHead);
    } else {
      assign(v.id, v.id, ClusterRole::kHead);  // chain too long: break off
    }
  }

  // Heads that ended up following someone inside the bound are members; make
  // sure every member's head is actually marked head.
  std::vector<VehicleId> promote;
  for (const auto& [vid, a] : assignments()) {
    if (a.role == ClusterRole::kMember) {
      auto head_it = assignments().find(a.head.value());
      if (head_it != assignments().end() &&
          head_it->second.role != ClusterRole::kHead) {
        promote.push_back(a.head);
      }
    }
  }
  for (const VehicleId h : promote) assign(h, h, ClusterRole::kHead);
}

}  // namespace vcl::cluster
