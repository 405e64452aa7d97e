#include "mobility/intersection.h"

#include <cmath>

namespace vcl::mobility {
namespace {

constexpr SimTime kPhase = 15.0;  // green time per approach group

}  // namespace

ApproachGroup approach_group(const geo::RoadNetwork& net, LinkId link) {
  const geo::Vec2 dir = net.link_direction(link);
  return std::abs(dir.x) >= std::abs(dir.y) ? ApproachGroup::kEastWest
                                            : ApproachGroup::kNorthSouth;
}

IntersectionMap::IntersectionMap(const geo::RoadNetwork& net) : net_(net) {
  for (const geo::RoadNode& node : net.nodes()) {
    if (node.in_links.size() > 2) {
      signalized_.push_back(node.id);
      signalized_set_.insert(node.id.value());
    }
  }
}

FixedCycleController::FixedCycleController(const geo::RoadNetwork& net,
                                           sim::Simulator& sim)
    : map_(net), sim_(sim) {}

ApproachGroup FixedCycleController::green_group(NodeId node) const {
  // Phase-offset by node id so adjacent intersections are not synchronized.
  const double t = sim_.now() + static_cast<double>(node.value() % 2) * kPhase;
  const auto cycle = static_cast<std::uint64_t>(t / kPhase);
  return (cycle % 2 == 0) ? ApproachGroup::kEastWest
                          : ApproachGroup::kNorthSouth;
}

bool FixedCycleController::can_enter(LinkId link, VehicleId /*v*/) const {
  const NodeId node = map_.network().link(link).to;
  if (!map_.is_signalized(node)) return true;
  return approach_group(map_.network(), link) == green_group(node);
}

}  // namespace vcl::mobility
