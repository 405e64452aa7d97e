// Virtual Traffic Lights: V2V intersection management without
// infrastructure (after Tonguz et al.'s VTL line — the "one vehicle serves
// as one of a group-decision-makers when crossing an intersection" role the
// paper's §III.A uses as its running example of dynamic role assignment).
//
// At each signalized intersection, the approaching vehicles elect a leader
// (the closest vehicle to the junction); the leader acts as the light:
// it grants green to the approach group with the greater demand, holding
// each phase at least 6 seconds to avoid thrashing, and yields
// leadership when it crosses or leaves. No RSU is involved — the exact
// infrastructure-reduction argument of the paper, applied to the paper's
// own example application.
#pragma once

#include "mobility/intersection.h"
#include "net/network.h"

namespace vcl::core {

class VtlController {
 public:
  explicit VtlController(net::Network& net);

  // Schedules periodic leader election + phase decisions.
  void attach();
  void decide();  // public for tests

  // Right-of-way oracle for TrafficModel::set_right_of_way.
  [[nodiscard]] bool can_enter(LinkId link, VehicleId v) const;

  // Introspection / metrics.
  [[nodiscard]] VehicleId leader(NodeId node) const;
  [[nodiscard]] std::size_t leader_changes() const { return leader_changes_; }
  [[nodiscard]] const mobility::IntersectionMap& intersections() const {
    return map_;
  }

 private:
  struct JunctionState {
    VehicleId leader;
    mobility::ApproachGroup green = mobility::ApproachGroup::kEastWest;
    SimTime phase_started = 0.0;
  };

  void decide_junction(NodeId node, JunctionState& state);

  net::Network& net_;
  mobility::IntersectionMap map_;
  std::unordered_map<std::uint64_t, JunctionState> junctions_;
  std::size_t leader_changes_ = 0;
};

// Stopped-time meter: fraction of fleet time spent (nearly) standing, the
// intersection-efficiency metric for E18.
class StopMeter {
 public:
  explicit StopMeter(mobility::TrafficModel& traffic) : traffic_(traffic) {}

  // Samples once per simulated second.
  void attach(sim::Simulator& sim);
  void sample();

  [[nodiscard]] double stopped_fraction() const {
    return samples_ == 0 ? 0.0
                         : static_cast<double>(stopped_) /
                               static_cast<double>(samples_);
  }
  [[nodiscard]] double mean_speed() const { return speed_.mean(); }

 private:
  mobility::TrafficModel& traffic_;
  std::size_t samples_ = 0;
  std::size_t stopped_ = 0;
  Accumulator speed_;
};

}  // namespace vcl::core
