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

  // Schedules periodic updates (after the network's beacon rounds).
  void attach(SimTime period = 1.0);

  // --- queries ---------------------------------------------------------------
  [[nodiscard]] ClusterRole role(VehicleId v) const;
  // Head of v's cluster (== v when head; invalid id when free/unknown).
  [[nodiscard]] VehicleId head_of(VehicleId v) const;
  [[nodiscard]] SimTime head_since(VehicleId v) const;
  [[nodiscard]] std::vector<VehicleId> members_of(VehicleId head) const;
  // All clusters as (head, members-including-head).
  [[nodiscard]] std::vector<std::pair<VehicleId, std::vector<VehicleId>>>
  clusters() const;
  [[nodiscard]] const std::unordered_map<std::uint64_t, ClusterAssignment>&
  assignments() const {
    return assignments_;
  }

  [[nodiscard]] net::Network& network() { return net_; }

 protected:
  // Score-based election shared by several protocols: local score maxima
  // become heads; other vehicles affiliate with the best-scoring head heard
  // in their neighbor table. `hysteresis` biases the current head's score so
  // marginal score changes do not reshuffle the cluster every round.
  void elect_by_score(const std::unordered_map<std::uint64_t, double>& scores,
                      double hysteresis);

  // Records an assignment, preserving `head_since` when the head is
  // unchanged.
  void assign(VehicleId v, VehicleId head, ClusterRole role);
  // Drops assignments for vehicles that left the simulation.
  void prune_departed();

  net::Network& net_;
  std::unordered_map<std::uint64_t, ClusterAssignment> assignments_;

 private:
  // elect_by_score scratch: 1 for this round's heads, by vehicle id.
  std::vector<std::uint8_t> elected_;
};

}  // namespace vcl::cluster
