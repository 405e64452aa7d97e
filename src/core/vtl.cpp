#include "core/vtl.h"

namespace vcl::core {
namespace {

constexpr double kDetectionRadius = 120.0;  // how far the leader "sees" demand
constexpr SimTime kMinPhase = 6.0;
constexpr SimTime kDecisionPeriod = 1.0;
constexpr SimTime kMeterPeriod = 1.0;  // StopMeter sampling

}  // namespace

VtlController::VtlController(net::Network& net)
    : net_(net), map_(net.traffic().network()) {}

void VtlController::attach() {
  net_.simulator().schedule_every(kDecisionPeriod, [this] { decide(); });
}

VehicleId VtlController::leader(NodeId node) const {
  auto it = junctions_.find(node.value());
  return it == junctions_.end() ? VehicleId{} : it->second.leader;
}

void VtlController::decide_junction(NodeId node, JunctionState& state) {
  const geo::Vec2 center = map_.network().node(node).pos;
  const SimTime now = net_.simulator().now();

  // Demand per approach group and leader candidate = nearest approaching
  // vehicle. "Approaching" = on an incoming link, heading for this node.
  std::size_t demand_ew = 0;
  std::size_t demand_ns = 0;
  VehicleId nearest;
  double nearest_dist = kDetectionRadius;
  for (const auto& [vid, v] : net_.traffic().vehicles()) {
    if (v.parked) continue;
    if (map_.network().link(v.link).to != node) continue;
    const double dist = geo::distance(v.pos, center);
    if (dist > kDetectionRadius) continue;
    if (mobility::approach_group(map_.network(), v.link) ==
        mobility::ApproachGroup::kEastWest) {
      ++demand_ew;
    } else {
      ++demand_ns;
    }
    if (dist < nearest_dist) {
      nearest_dist = dist;
      nearest = v.id;
    }
  }

  // Leader election: the nearest approaching vehicle serves; if the old
  // leader is still approaching, it keeps the role (stability).
  const mobility::VehicleState* old_leader =
      state.leader.valid() ? net_.traffic().find(state.leader) : nullptr;
  const bool old_still_approaching =
      old_leader != nullptr && !old_leader->parked &&
      map_.network().link(old_leader->link).to == node &&
      geo::distance(old_leader->pos, center) <= kDetectionRadius;
  if (!old_still_approaching) {
    if (state.leader.valid() || nearest.valid()) {
      if (!(state.leader == nearest)) ++leader_changes_;
    }
    state.leader = nearest;
  }

  // Phase decision by the leader: serve the group with more demand, with a
  // minimum-phase hold.
  if (!state.leader.valid()) return;  // empty junction: hold current state
  if (now - state.phase_started < kMinPhase) return;
  const mobility::ApproachGroup wanted =
      demand_ew >= demand_ns ? mobility::ApproachGroup::kEastWest
                             : mobility::ApproachGroup::kNorthSouth;
  if (wanted != state.green) {
    state.green = wanted;
    state.phase_started = now;
  }
}

void VtlController::decide() {
  for (const NodeId node : map_.signalized()) {
    decide_junction(node, junctions_[node.value()]);
  }
}

bool VtlController::can_enter(LinkId link, VehicleId /*v*/) const {
  const NodeId node = map_.network().link(link).to;
  if (!map_.is_signalized(node)) return true;
  auto it = junctions_.find(node.value());
  if (it == junctions_.end()) return true;  // no decision yet: uncontrolled
  // With no leader present the junction is empty enough to treat as
  // uncontrolled (first-come first-served).
  if (!it->second.leader.valid()) return true;
  return mobility::approach_group(map_.network(), link) == it->second.green;
}

void StopMeter::attach(sim::Simulator& sim) {
  sim.schedule_every(kMeterPeriod, [this] { sample(); });
}

void StopMeter::sample() {
  for (const auto& [vid, v] : traffic_.vehicles()) {
    if (v.parked) continue;
    ++samples_;
    stopped_ += v.speed < 0.5 ? 1 : 0;
    speed_.add(v.speed);
  }
}

}  // namespace vcl::core
