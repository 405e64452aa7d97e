#include "mobility/traffic.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "mobility/idm.h"

namespace vcl::mobility {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kStepDt = 0.1;  // attach()'s step, seconds

std::uint64_t lane_key(LinkId link, int lane) {
  return (link.value() << 8) | static_cast<std::uint64_t>(lane & 0xff);
}

}  // namespace

TrafficModel::TrafficModel(const geo::RoadNetwork& net, Rng rng)
    : net_(net), rng_(rng) {}

VehicleId TrafficModel::spawn(std::vector<LinkId> route, double initial_speed,
                              AutomationLevel automation,
                              double speed_factor) {
  assert(!route.empty());
  ++epoch_;
  const VehicleId id{next_vehicle_id_++};
  VehicleState v;
  v.id = id;
  v.route = std::move(route);
  v.route_index = 0;
  v.link = v.route.front();
  v.lane = 0;
  v.offset = 0.0;
  v.speed = initial_speed;
  v.automation = automation;
  v.speed_factor = speed_factor;
  v.spawn_time = now_;
  refresh_world_frame(v);
  vehicles_.emplace(id.value(), std::move(v));
  return id;
}

VehicleId TrafficModel::spawn_parked(LinkId link, double offset) {
  ++epoch_;
  const VehicleId id{next_vehicle_id_++};
  VehicleState v;
  v.id = id;
  v.link = link;
  v.route = {link};
  v.offset = offset;
  v.speed = 0.0;
  v.parked = true;
  v.spawn_time = now_;
  refresh_world_frame(v);
  vehicles_.emplace(id.value(), std::move(v));
  return id;
}

void TrafficModel::despawn(VehicleId id) {
  ++epoch_;
  ++departures_;
  vehicles_.erase(id.value());
}

void TrafficModel::set_arrival_handler(ArrivalHandler handler) {
  arrival_handler_ = std::move(handler);
}

void TrafficModel::set_right_of_way(RightOfWayFn fn) {
  right_of_way_ = std::move(fn);
}

const VehicleState* TrafficModel::find(VehicleId id) const {
  auto it = vehicles_.find(id.value());
  return it == vehicles_.end() ? nullptr : &it->second;
}

VehicleState* TrafficModel::find_mutable(VehicleId id) {
  ++epoch_;
  auto it = vehicles_.find(id.value());
  return it == vehicles_.end() ? nullptr : &it->second;
}

void TrafficModel::refresh_world_frame(VehicleState& v) const {
  v.pos = net_.position_on_link(v.link, v.offset);
  const geo::Vec2 dir = net_.link_direction(v.link);
  v.vel = dir * v.speed;
  // Offset parallel lanes laterally so the radio model sees distinct
  // positions (3.5 m lane width, perpendicular to travel direction).
  const geo::Vec2 normal{-dir.y, dir.x};
  v.pos += normal * (3.5 * v.lane);
}

void TrafficModel::rebuild_lane_index() {
  for (std::vector<LaneSlot>& bucket : lane_buckets_) bucket.clear();
  lane_index_.clear();
  for (auto& [vid, v] : vehicles_) {
    // Parked vehicles sit curbside (stalls/shoulder), not in the travel
    // lane: they radio-participate but do not block traffic.
    if (v.parked) continue;
    // A new key takes the next bucket.
    const auto next = static_cast<std::uint32_t>(lane_index_.size());
    const std::uint32_t b =
        lane_index_.try_emplace(lane_key(v.link, v.lane), next).first->second;
    if (b == lane_buckets_.size()) lane_buckets_.emplace_back();
    lane_buckets_[b].push_back(LaneSlot{v.offset, &v});
  }
  for (const auto& [key, b] : lane_index_) {
    std::sort(lane_buckets_[b].begin(), lane_buckets_[b].end(),
              [](const LaneSlot& x, const LaneSlot& y) {
                if (x.offset != y.offset) return x.offset > y.offset;  // leader
                return x.v->id.value() < y.v->id.value();
              });
  }
}

void TrafficModel::advance_vehicle(VehicleState& v, double dt,
                                   const std::vector<LaneSlot>& lane_order,
                                   std::size_t pos_in_lane) {
  const geo::RoadLink& link = net_.link(v.link);
  double gap = kInf;
  double approach = 0.0;
  if (pos_in_lane > 0) {
    const VehicleState& leader = *lane_order[pos_in_lane - 1].v;
    gap = leader.offset - leader.length - v.offset;
    approach = v.speed - leader.speed;
  }

  // Simple lane change: if blocked (small gap, slower leader) and an
  // adjacent lane exists, hop over with a modest probability. Gap checks on
  // the target lane are approximated by the lane being less crowded.
  if (gap < 10.0 && link.lanes > 1 && rng_.bernoulli(0.1)) {
    const int target = v.lane + (v.lane + 1 < link.lanes ? 1 : -1);
    const auto it = lane_index_.find(lane_key(v.link, target));
    const std::size_t target_n =
        it == lane_index_.end() ? 0 : lane_buckets_[it->second].size();
    if (target_n + 1 < lane_order.size()) {
      v.lane = target;
      gap = kInf;  // treat as free after the hop; corrected next step
      approach = 0.0;
    }
  }

  // Signalized intersection: a red light is a standing obstacle at the
  // stop line (the link end).
  bool blocked_by_signal = false;
  if (right_of_way_ && v.has_more_links()) {
    const double dist_to_end = link.length - v.offset;
    if (dist_to_end < 100.0 && !right_of_way_(v.link, v.id)) {
      blocked_by_signal = true;
      const double stop_gap = dist_to_end;  // phantom car at the stop line
      if (stop_gap < gap) {
        gap = stop_gap;
        approach = v.speed;
      }
    }
  }

  v.accel = idm_acceleration(v.speed, approach, gap,
                             link.speed_limit * v.speed_factor);
  v.speed = std::max(0.0, v.speed + v.accel * dt);
  v.offset += v.speed * dt;

  // Hard stop at the line: IDM brakes smoothly, but numerics can overshoot
  // a freshly-red signal; never let a blocked vehicle enter the junction.
  if (blocked_by_signal && v.offset >= net_.link(v.link).length) {
    v.offset = net_.link(v.link).length - 0.5;
    v.speed = 0.0;
  }

  // Advance across link boundaries (can cross several short links per step).
  while (v.offset >= net_.link(v.link).length) {
    if (v.has_more_links()) {
      v.offset -= net_.link(v.link).length;
      ++v.route_index;
      v.link = v.route[v.route_index];
      v.lane = std::min(v.lane, net_.link(v.link).lanes - 1);
      continue;
    }
    // Route exhausted: ask the owner what to do.
    std::optional<std::vector<LinkId>> next;
    if (arrival_handler_) next = arrival_handler_(v);
    if (next && !next->empty()) {
      v.route = std::move(*next);
      v.route_index = 0;
      v.link = v.route.front();
      v.offset = 0.0;
      v.lane = 0;
    } else {
      v.offset = net_.link(v.link).length;  // hold at end; despawned below
      v.parked = true;                      // marks "trip over"
      break;
    }
  }
}

void TrafficModel::step(double dt) {
  ++epoch_;
  now_ += dt;
  rebuild_lane_index();
  std::vector<VehicleId> finished;
  for (const auto& [key, b] : lane_index_) {
    const std::vector<LaneSlot>& lane = lane_buckets_[b];
    for (std::size_t i = 0; i < lane.size(); ++i) {
      VehicleState& v = *lane[i].v;
      if (v.parked) continue;
      advance_vehicle(v, dt, lane, i);
      if (v.parked) finished.push_back(v.id);  // trip ended this step
    }
  }
  if (!finished.empty()) ++departures_;
  for (const VehicleId id : finished) vehicles_.erase(id.value());
  for (auto& [vid, v] : vehicles_) refresh_world_frame(v);
}

void TrafficModel::attach(sim::Simulator& sim) {
  sim.schedule_every(kStepDt, [this] { step(kStepDt); }, -1.0,
                     "mobility.step");
}

double TrafficModel::route_time_to_exit(const VehicleState& v,
                                        geo::Vec2 center, double radius,
                                        bool use_speed_limits) const {
  if (v.parked) return kInf;
  const double fallback_speed = std::max(v.speed, 1.0);
  double t = 0.0;
  double offset = v.offset;
  const double probe_step = 10.0;  // meters
  for (std::size_t ri = v.route_index; ri < v.route.size(); ++ri) {
    const LinkId lid = v.route[ri];
    const geo::RoadLink& link = net_.link(lid);
    const double speed =
        use_speed_limits ? std::max(link.speed_limit, 1.0) : fallback_speed;
    while (offset < link.length) {
      const geo::Vec2 p = net_.position_on_link(lid, offset);
      if (geo::distance(p, center) > radius) return t;
      const double advance = std::min(probe_step, link.length - offset);
      offset += advance;
      t += advance / speed;
    }
    offset = 0.0;
  }
  return kInf;  // never leaves the disc along the known route
}

double TrafficModel::predict_time_to_exit(VehicleId id, geo::Vec2 center,
                                          double radius) const {
  const VehicleState* v = find(id);
  if (v == nullptr) return 0.0;
  return route_time_to_exit(*v, center, radius, /*use_speed_limits=*/false);
}

double TrafficModel::oracle_time_to_exit(VehicleId id, geo::Vec2 center,
                                         double radius) const {
  const VehicleState* v = find(id);
  if (v == nullptr) return 0.0;
  return route_time_to_exit(*v, center, radius, /*use_speed_limits=*/true);
}

}  // namespace vcl::mobility
