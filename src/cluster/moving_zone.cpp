#include "cluster/moving_zone.h"

#include <algorithm>
#include <cmath>

namespace vcl::cluster {

namespace {
constexpr std::uint32_t kNoSlot = 0xffffffffu;
constexpr double kMaxSpeedDiff = 6.0;       // m/s
constexpr double kMaxAngleRad = 0.6;        // heading difference (~34 degrees)
constexpr double kCaptainHysteresis = 30.0;  // meters of centroid slack
}  // namespace

bool MovingZone::compatible(geo::Vec2 vel_a, double speed_a, geo::Vec2 vel_b,
                            double speed_b) const {
  // Parked/near-stationary vehicles group by proximity alone.
  if (speed_a < 0.5 && speed_b < 0.5) return true;
  if (std::abs(speed_a - speed_b) > kMaxSpeedDiff) return false;
  // geo::angle_between, reusing the norms.
  double angle = 0.0;
  if (speed_a != 0.0 && speed_b != 0.0) {
    const double c = vel_a.dot(vel_b) / (speed_a * speed_b);
    angle = std::acos(std::clamp(c, -1.0, 1.0));
  }
  return angle <= kMaxAngleRad;
}

void MovingZone::update() {
  prune_departed();
  const auto& vehicles = net_.traffic().vehicles();

  // Slots follow vehicles() order, which fixes the order of unions, of zone
  // members and of centroid sums.
  std::fill(slot_by_id_.begin(), slot_by_id_.end(), kNoSlot);
  vehicle_.clear();
  speed_.clear();
  for (const auto& [vid, v] : vehicles) {
    if (vid >= slot_by_id_.size()) slot_by_id_.resize(vid + 1, kNoSlot);
    slot_by_id_[vid] = static_cast<std::uint32_t>(vehicle_.size());
    vehicle_.push_back(&v);
    speed_.push_back(v.vel.norm());
  }
  const auto slot_of = [this](VehicleId v) {
    return v.value() < slot_by_id_.size() ? slot_by_id_[v.value()] : kNoSlot;
  };

  // Union-find over the compatibility graph from neighbor tables. Roots do
  // not depend on path halving, so testing for a common root before the
  // (costlier) compatibility check leaves every root, zone and captain as
  // they were.
  parent_.resize(vehicle_.size());
  for (std::uint32_t s = 0; s < parent_.size(); ++s) parent_[s] = s;
  const auto find = [this](std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  };
  for (std::uint32_t s = 0; s < vehicle_.size(); ++s) {
    const geo::Vec2 vel = vehicle_[s]->vel;
    for (const net::NeighborEntry& n : net_.neighbors(vehicle_[s]->id)) {
      const std::uint32_t ns = slot_of(n.id);
      if (ns == kNoSlot) continue;
      const std::uint32_t ra = find(s);
      const std::uint32_t rb = find(ns);
      if (ra == rb) continue;
      if (!compatible(vel, speed_[s], n.vel, n.vel.norm())) continue;
      parent_[ra] = rb;
    }
  }

  // Gather zones, keyed by the root's vehicle id: the map's iteration order
  // fixes the order of assign() calls below.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> zones;
  for (std::uint32_t s = 0; s < vehicle_.size(); ++s) {
    zones[vehicle_[find(s)]->id.value()].push_back(s);
  }

  // Elect captains: member nearest the zone centroid, with hysteresis for
  // the incumbent captain.
  for (auto& [root, members] : zones) {
    geo::Vec2 centroid;
    for (const std::uint32_t m : members) centroid += vehicle_[m]->pos;
    centroid = centroid / static_cast<double>(members.size());

    VehicleId captain;
    double best = 1e300;
    for (const std::uint32_t m : members) {
      const VehicleId id = vehicle_[m]->id;
      double d = geo::distance(vehicle_[m]->pos, centroid);
      auto cur = assignments().find(id.value());
      if (cur != assignments().end() &&
          cur->second.role == ClusterRole::kHead) {
        d -= kCaptainHysteresis;
      }
      if (d < best || (d == best && id.value() < captain.value())) {
        best = d;
        captain = id;
      }
    }
    for (const std::uint32_t m : members) {
      const VehicleId id = vehicle_[m]->id;
      assign(id, captain,
             id == captain ? ClusterRole::kHead : ClusterRole::kMember);
    }
  }
}

}  // namespace vcl::cluster
