#include "cluster/cluster_manager.h"

#include <algorithm>

namespace vcl::cluster {

void ClusterManager::attach(SimTime period) {
  net_.simulator().schedule_every(period, [this] { update(); }, -1.0,
                                  "cluster.update");
}

ClusterRole ClusterManager::role(VehicleId v) const {
  auto it = assignments_.find(v.value());
  return it == assignments_.end() ? ClusterRole::kFree : it->second.role;
}

VehicleId ClusterManager::head_of(VehicleId v) const {
  auto it = assignments_.find(v.value());
  if (it == assignments_.end() || it->second.role == ClusterRole::kFree) {
    return VehicleId{};
  }
  return it->second.head;
}

SimTime ClusterManager::head_since(VehicleId v) const {
  auto it = assignments_.find(v.value());
  return it == assignments_.end() ? 0.0 : it->second.head_since;
}

std::vector<VehicleId> ClusterManager::members_of(VehicleId head) const {
  std::vector<VehicleId> out;
  for (const auto& [vid, a] : assignments_) {
    if (a.role != ClusterRole::kFree && a.head == head) {
      out.push_back(VehicleId{vid});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<VehicleId, std::vector<VehicleId>>>
ClusterManager::clusters() const {
  // One pass groups every affiliated vehicle under the head it names; only
  // groups whose head currently holds the head role become clusters. Each
  // list equals members_of(head), without a scan per head.
  std::unordered_map<std::uint64_t, std::vector<VehicleId>> groups;
  std::vector<VehicleId> heads;
  for (const auto& [vid, a] : assignments_) {
    if (a.role == ClusterRole::kFree) continue;
    groups[a.head.value()].push_back(VehicleId{vid});
    if (a.role == ClusterRole::kHead) heads.push_back(VehicleId{vid});
  }
  std::sort(heads.begin(), heads.end());
  std::vector<std::pair<VehicleId, std::vector<VehicleId>>> out;
  out.reserve(heads.size());
  for (const VehicleId head : heads) {
    std::vector<VehicleId>& members = groups[head.value()];
    std::sort(members.begin(), members.end());
    out.emplace_back(head, std::move(members));
  }
  return out;
}

void ClusterManager::assign(VehicleId v, VehicleId head, ClusterRole role) {
  auto& a = assignments_[v.value()];
  if (!(a.head == head) || a.role == ClusterRole::kFree) {
    a.head_since = net_.simulator().now();
  }
  a.head = head;
  a.role = role;
}

void ClusterManager::prune_departed() {
  for (auto it = assignments_.begin(); it != assignments_.end();) {
    if (net_.traffic().find(VehicleId{it->first}) == nullptr) {
      it = assignments_.erase(it);
    } else {
      ++it;
    }
  }
}

void ClusterManager::elect_by_score(
    const std::unordered_map<std::uint64_t, double>& scores,
    double hysteresis) {
  prune_departed();
  // Snapshot incumbent-biased scores BEFORE any assignment changes, so the
  // election is independent of vehicle iteration order.
  std::unordered_map<std::uint64_t, double> final_scores;
  for (const auto& [vid, v] : net_.traffic().vehicles()) {
    auto it = scores.find(vid);
    double s = it == scores.end() ? 0.0 : it->second;
    auto cur = assignments_.find(vid);
    if (cur != assignments_.end() && cur->second.role == ClusterRole::kHead) {
      s += hysteresis;  // sticky headship
    }
    final_scores[vid] = s;
  }
  auto biased = [&](VehicleId v) {
    auto it = final_scores.find(v.value());
    return it == final_scores.end() ? 0.0 : it->second;
  };

  // Pass 1: a vehicle declares itself head when no neighbor outscores it.
  // elected_ flags this round's heads by vehicle id.
  std::vector<VehicleId> heads;
  const auto elected = [this](VehicleId v) {
    return v.value() < elected_.size() && elected_[v.value()] != 0;
  };
  for (const auto& [vid, v] : net_.traffic().vehicles()) {
    const double own = biased(v.id);
    bool is_max = true;
    for (const net::NeighborEntry& n : net_.neighbors(v.id)) {
      const double ns = biased(n.id);
      if (ns > own || (ns == own && n.id.value() < v.id.value())) {
        is_max = false;
        break;
      }
    }
    if (is_max) {
      assign(v.id, v.id, ClusterRole::kHead);
      heads.push_back(v.id);
      if (vid >= elected_.size()) elected_.resize(vid + 1, 0);
      elected_[vid] = 1;
    }
  }

  // Pass 2: everyone else joins the best head in its neighbor table.
  for (const auto& [vid, v] : net_.traffic().vehicles()) {
    if (elected(v.id)) continue;
    VehicleId best_head;
    double best_score = -1e300;
    for (const net::NeighborEntry& n : net_.neighbors(v.id)) {
      if (!elected(n.id)) continue;
      const double s = biased(n.id);
      if (s > best_score) {
        best_score = s;
        best_head = n.id;
      }
    }
    if (best_head.valid()) {
      assign(v.id, best_head, ClusterRole::kMember);
    } else {
      assign(v.id, v.id, ClusterRole::kHead);  // isolated: own cluster
    }
  }
  for (const VehicleId h : heads) elected_[h.value()] = 0;
}

}  // namespace vcl::cluster
