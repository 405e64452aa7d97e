// Intersection signal control.
//
// Intersections (nodes with more than two incoming links) gate entry by
// approach group: links are classified east-west or north-south by their
// direction vector, and a controller decides which group holds the green.
// `FixedCycleController` is the conventional infrastructure baseline: a
// dumb timer alternating the groups. The V2V alternative (virtual traffic
// lights, after Tonguz's line of work the paper grows out of) lives in
// core/vtl.h because it needs the network layer.
#pragma once

#include <unordered_map>
#include <unordered_set>

#include "geo/road_network.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace vcl::mobility {

enum class ApproachGroup : std::uint8_t { kEastWest, kNorthSouth };

// Classifies a link's approach by its dominant axis.
ApproachGroup approach_group(const geo::RoadNetwork& net, LinkId link);

// Shared helpers for signal controllers.
class IntersectionMap {
 public:
  explicit IntersectionMap(const geo::RoadNetwork& net);

  // Nodes that need control (more than two incoming links).
  [[nodiscard]] const std::vector<NodeId>& signalized() const {
    return signalized_;
  }
  [[nodiscard]] bool is_signalized(NodeId node) const {
    return signalized_set_.count(node.value()) != 0;
  }
  [[nodiscard]] const geo::RoadNetwork& network() const { return net_; }

 private:
  const geo::RoadNetwork& net_;
  std::vector<NodeId> signalized_;
  std::unordered_set<std::uint64_t> signalized_set_;
};

// Conventional fixed-cycle signals: every intersection alternates EW/NS
// every 15 s on a common timer (offset by node id so the grid does not pulse
// in lockstep).
class FixedCycleController {
 public:
  FixedCycleController(const geo::RoadNetwork& net, sim::Simulator& sim);

  // Right-of-way oracle to plug into TrafficModel::set_right_of_way.
  [[nodiscard]] bool can_enter(LinkId link, VehicleId v) const;

  [[nodiscard]] const IntersectionMap& intersections() const { return map_; }

 private:
  [[nodiscard]] ApproachGroup green_group(NodeId node) const;

  IntersectionMap map_;
  sim::Simulator& sim_;
};

}  // namespace vcl::mobility
