#include "cluster/cluster_manager.h"

#include <algorithm>

namespace vcl::cluster {
namespace {

constexpr SimTime kUpdatePeriod = 1.0;

}  // namespace

void ClusterManager::attach() {
  net_.simulator().schedule_every(kUpdatePeriod, [this] { update(); }, -1.0,
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

const ClusterList& ClusterManager::clusters() const {
  if (built_ && built_generation_ == generation_) return clusters_;
  // Every affiliated vehicle as (named head, id), sorted, so each head's
  // members are one run; only heads that currently hold the head role
  // become clusters, and each list holds every vehicle naming that head.
  std::vector<std::pair<VehicleId, VehicleId>> affiliated;
  std::vector<VehicleId> heads;
  affiliated.reserve(assignments_.size());
  for (const auto& [vid, a] : assignments_) {
    if (a.role == ClusterRole::kFree) continue;
    affiliated.emplace_back(a.head, VehicleId{vid});
    if (a.role == ClusterRole::kHead) heads.push_back(VehicleId{vid});
  }
  std::sort(affiliated.begin(), affiliated.end());
  std::sort(heads.begin(), heads.end());
  clusters_.clear();
  clusters_.reserve(heads.size());
  auto run = affiliated.begin();
  for (const VehicleId head : heads) {
    while (run != affiliated.end() && run->first < head) ++run;
    std::vector<VehicleId> members;
    for (; run != affiliated.end() && run->first == head; ++run) {
      members.push_back(run->second);
    }
    clusters_.emplace_back(head, std::move(members));
  }
  built_ = true;
  built_generation_ = generation_;
  ++cluster_builds_;
  return clusters_;
}

void ClusterManager::assign(VehicleId v, VehicleId head, ClusterRole role) {
  const auto [it, inserted] = assignments_.try_emplace(v.value());
  ClusterAssignment& a = it->second;
  if (!(a.head == head) || a.role == ClusterRole::kFree) {
    a.head_since = net_.simulator().now();
  }
  if (inserted || !(a.head == head) || a.role != role) ++generation_;
  if (inserted && net_.traffic().find(v) == nullptr) prune_due_ = true;
  a.head = head;
  a.role = role;
}

void ClusterManager::prune_departed() {
  // An entry made for a vehicle in traffic can only go stale by a
  // departure, which traffic counts: without one since the last scan, and
  // without an entry made for a vehicle not in traffic, none is stale.
  const std::uint64_t departures = net_.traffic().departures();
  if (!prune_due_ && pruned_departures_ == departures) return;
  pruned_departures_ = departures;
  prune_due_ = false;
  for (auto it = assignments_.begin(); it != assignments_.end();) {
    if (net_.traffic().find(VehicleId{it->first}) == nullptr) {
      it = assignments_.erase(it);
      ++generation_;
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
