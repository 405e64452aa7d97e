// Cluster management base: assignment bookkeeping shared by all protocols.
//
// The paper (§IV.A.1) identifies clusters as the organizational backbone of
// v-clouds: cluster heads coordinate resource sharing, task allocation and
// result aggregation. Concrete protocols (speed-based, passive multi-hop,
// fuzzy, moving-zone) differ only in how they elect heads and affiliate
// members; the bookkeeping, queries and election helpers live here.
#pragma once

#include <unordered_map>
#include <vector>

#include "net/network.h"

namespace vcl::cluster {

enum class ClusterRole : std::uint8_t { kFree, kHead, kMember };

// All clusters as (head, members-including-head), sorted by head id.
using ClusterList = std::vector<std::pair<VehicleId, std::vector<VehicleId>>>;

struct ClusterAssignment {
  VehicleId head;          // == self for heads
  ClusterRole role = ClusterRole::kFree;
  SimTime head_since = 0;  // when `head` last changed for this vehicle
};

class ClusterManager {
 public:
  explicit ClusterManager(net::Network& net) : net_(net) {}
  virtual ~ClusterManager() = default;
  ClusterManager(const ClusterManager&) = delete;
  ClusterManager& operator=(const ClusterManager&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;
  // Recomputes assignments from the current neighbor tables.
  virtual void update() = 0;

  // Schedules an update every simulated second (after the network's beacon
  // rounds).
  void attach();

  // --- queries ---------------------------------------------------------------
  [[nodiscard]] ClusterRole role(VehicleId v) const;
  // Head of v's cluster (== v when head; invalid id when free/unknown).
  [[nodiscard]] VehicleId head_of(VehicleId v) const;
  // All clusters, built from the assignment table on the first call after
  // it changed and cached until it changes again. The reference is valid
  // until the next update().
  [[nodiscard]] const ClusterList& clusters() const;
  [[nodiscard]] const std::unordered_map<std::uint64_t, ClusterAssignment>&
  assignments() const {
    return assignments_;
  }
  // Bumped whenever the assignment table changes (a head or role written
  // by assign(), an entry dropped by prune_departed()); clusters() and the
  // dynamic cloud's region memoize on it.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  // Work counter: how many times clusters() has rebuilt its list.
  [[nodiscard]] std::uint64_t cluster_builds() const { return cluster_builds_; }

  [[nodiscard]] net::Network& network() { return net_; }

 protected:
  // Score-based election shared by several protocols: local score maxima
  // become heads; other vehicles affiliate with the best-scoring head heard
  // in their neighbor table. `hysteresis` biases the current head's score so
  // marginal score changes do not reshuffle the cluster every round.
  void elect_by_score(const std::unordered_map<std::uint64_t, double>& scores,
                      double hysteresis);

  // Records an assignment, preserving `head_since` when the head is
  // unchanged. The only writer of the table besides prune_departed().
  void assign(VehicleId v, VehicleId head, ClusterRole role);
  // Drops assignments for vehicles that left the simulation.
  void prune_departed();

  net::Network& net_;

 private:
  std::unordered_map<std::uint64_t, ClusterAssignment> assignments_;
  std::uint64_t generation_ = 0;
  // Traffic's departures() at the last prune_departed() scan, and whether
  // an entry was made since for a vehicle not in traffic.
  std::uint64_t pruned_departures_ = 0;
  bool prune_due_ = false;
  // clusters() cache, valid while built_generation_ == generation_.
  mutable ClusterList clusters_;
  mutable std::uint64_t built_generation_ = 0;
  mutable bool built_ = false;
  mutable std::uint64_t cluster_builds_ = 0;
  // elect_by_score scratch: 1 for this round's heads, by vehicle id.
  std::vector<std::uint8_t> elected_;
};

}  // namespace vcl::cluster
