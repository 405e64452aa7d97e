// Cluster stability metrics (experiment E7).
//
// Observes a ClusterManager once per round and accumulates the standard
// stability indicators from the VANET clustering literature: cluster-head
// lifetime, member re-affiliation rate, and cluster count/size.
#pragma once

#include <unordered_map>

#include "cluster/cluster_manager.h"
#include "util/stats.h"

namespace vcl::cluster {

class StabilityTracker {
 public:
  explicit StabilityTracker(const ClusterManager& manager)
      : manager_(manager) {}

  // Call once per clustering round (after manager.update()).
  void observe(SimTime now);

  // Mean time a vehicle keeps the head role, seconds (completed tenures).
  [[nodiscard]] const Accumulator& head_lifetime() const {
    return head_lifetime_;
  }
  // Fraction of member observations where the member's head changed since
  // the previous round.
  [[nodiscard]] double reaffiliation_rate() const {
    return reaffiliations_.value();
  }
  [[nodiscard]] const Accumulator& cluster_count() const {
    return cluster_count_;
  }
  [[nodiscard]] const Accumulator& cluster_size() const {
    return cluster_size_;
  }
  // Group-dynamics events (paper §V.A "splitting, merging, re-allocation of
  // the groups"): a merge is a vanished cluster whose members predominantly
  // moved under one surviving head; a split is a new cluster drawing most
  // of its members from one surviving cluster.
  [[nodiscard]] std::size_t merges() const { return merges_; }
  [[nodiscard]] std::size_t splits() const { return splits_; }

 private:
  const ClusterManager& manager_;
  std::unordered_map<std::uint64_t, std::uint64_t> prev_head_;
  std::unordered_map<std::uint64_t, std::uint64_t> prev_cluster_of_;
  std::unordered_map<std::uint64_t, std::size_t> prev_cluster_sizes_;
  std::unordered_map<std::uint64_t, SimTime> head_start_;
  Accumulator head_lifetime_;
  Ratio reaffiliations_;
  Accumulator cluster_count_;
  Accumulator cluster_size_;
  std::size_t merges_ = 0;
  std::size_t splits_ = 0;
};

}  // namespace vcl::cluster
