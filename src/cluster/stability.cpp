#include "cluster/stability.h"

namespace vcl::cluster {

void StabilityTracker::observe(SimTime now) {
  const auto& assignments = manager_.assignments();

  // Head tenure tracking.
  for (const auto& [vid, a] : assignments) {
    const bool is_head = a.role == ClusterRole::kHead;
    auto started = head_start_.find(vid);
    if (is_head && started == head_start_.end()) {
      head_start_[vid] = now;
    } else if (!is_head && started != head_start_.end()) {
      head_lifetime_.add(now - started->second);
      head_start_.erase(started);
    }
  }
  // Vehicles that disappeared while head close their tenure.
  for (auto it = head_start_.begin(); it != head_start_.end();) {
    if (assignments.find(it->first) == assignments.end()) {
      head_lifetime_.add(now - it->second);
      it = head_start_.erase(it);
    } else {
      ++it;
    }
  }

  // Re-affiliation: member whose head changed between rounds.
  for (const auto& [vid, a] : assignments) {
    if (a.role != ClusterRole::kMember) continue;
    auto prev = prev_head_.find(vid);
    if (prev != prev_head_.end()) {
      reaffiliations_.add(prev->second != a.head.value());
    }
  }
  prev_head_.clear();
  for (const auto& [vid, a] : assignments) {
    if (a.role == ClusterRole::kMember) prev_head_[vid] = a.head.value();
  }

  // Shape metrics.
  const ClusterList& clusters = manager_.clusters();
  cluster_count_.add(static_cast<double>(clusters.size()));
  for (const auto& [head, members] : clusters) {
    cluster_size_.add(static_cast<double>(members.size()));
  }

  // Split/merge detection against the previous round's cluster map.
  std::unordered_map<std::uint64_t, std::uint64_t> cluster_of;
  std::unordered_map<std::uint64_t, std::size_t> sizes;
  for (const auto& [head, members] : clusters) {
    sizes[head.value()] = members.size();
    for (const VehicleId m : members) cluster_of[m.value()] = head.value();
  }
  if (!prev_cluster_sizes_.empty()) {
    // Merge: a previous cluster's head is gone and >= 60% of its members
    // now sit in one existing (previously present) cluster.
    for (const auto& [old_head, old_size] : prev_cluster_sizes_) {
      if (sizes.count(old_head) != 0 || old_size < 2) continue;
      std::unordered_map<std::uint64_t, std::size_t> went_to;
      std::size_t tracked = 0;
      for (const auto& [vid, head] : prev_cluster_of_) {
        if (head != old_head) continue;
        auto now_it = cluster_of.find(vid);
        if (now_it == cluster_of.end()) continue;
        ++tracked;
        ++went_to[now_it->second];
      }
      for (const auto& [dst, count] : went_to) {
        if (prev_cluster_sizes_.count(dst) != 0 && tracked > 0 &&
            count * 10 >= tracked * 6) {
          ++merges_;
          break;
        }
      }
    }
    // Split: a new cluster (head not previously a head) with >= 2 members
    // drew >= 60% of them from one surviving previous cluster.
    for (const auto& [head, size] : sizes) {
      if (prev_cluster_sizes_.count(head) != 0 || size < 2) continue;
      std::unordered_map<std::uint64_t, std::size_t> came_from;
      std::size_t tracked = 0;
      for (const auto& [vid, h] : cluster_of) {
        if (h != head) continue;
        auto prev_it = prev_cluster_of_.find(vid);
        if (prev_it == prev_cluster_of_.end()) continue;
        ++tracked;
        ++came_from[prev_it->second];
      }
      for (const auto& [src, count] : came_from) {
        if (sizes.count(src) != 0 && tracked > 0 &&
            count * 10 >= tracked * 6) {
          ++splits_;
          break;
        }
      }
    }
  }
  prev_cluster_of_ = std::move(cluster_of);
  prev_cluster_sizes_ = std::move(sizes);
}

}  // namespace vcl::cluster
