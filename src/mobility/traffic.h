// TrafficModel: advances all vehicles on a road network.
//
// Fixed-step kinematics (default 100 ms): per (link, lane) vehicles follow
// the Intelligent Driver Model behind their leader, advance along their
// route at link ends, and optionally change lanes when the neighbor lane
// offers a clearly better gap. Arrived vehicles are either removed or
// re-routed by the owner via the arrival callback.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "geo/road_network.h"
#include "mobility/vehicle.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace vcl::mobility {

class TrafficModel {
 public:
  // Called when a vehicle reaches the end of its route. Return a new route
  // (list of links starting at the vehicle's end node) to keep it alive, or
  // nullopt to despawn it. It runs inside step() and must not despawn
  // vehicles.
  using ArrivalHandler =
      std::function<std::optional<std::vector<LinkId>>(const VehicleState&)>;
  // Right-of-way oracle for signalized intersections: called for a vehicle
  // nearing the end of `link`; returning false makes it stop at the stop
  // line (the link end) until the signal clears.
  using RightOfWayFn = std::function<bool(LinkId, VehicleId)>;

  TrafficModel(const geo::RoadNetwork& net, Rng rng);

  // Spawns a moving vehicle at the start of `route` (must be non-empty).
  VehicleId spawn(std::vector<LinkId> route, double initial_speed,
                  AutomationLevel automation =
                      AutomationLevel::kConditionalAutomation,
                  double speed_factor = 1.0);
  // Spawns a parked vehicle at a fixed offset on a link.
  VehicleId spawn_parked(LinkId link, double offset);
  void despawn(VehicleId id);

  void set_arrival_handler(ArrivalHandler handler);
  void set_right_of_way(RightOfWayFn fn);

  // Advances all vehicles by dt seconds.
  void step(double dt);
  // Registers a step of 0.1 s every 0.1 simulated seconds with `sim`.
  void attach(sim::Simulator& sim);

  [[nodiscard]] const VehicleState* find(VehicleId id) const;
  [[nodiscard]] VehicleState* find_mutable(VehicleId id);
  [[nodiscard]] std::size_t vehicle_count() const { return vehicles_.size(); }
  [[nodiscard]] const std::unordered_map<std::uint64_t, VehicleState>&
  vehicles() const {
    return vehicles_;
  }
  [[nodiscard]] const geo::RoadNetwork& network() const { return net_; }
  [[nodiscard]] SimTime now() const { return now_; }
  // Bumped by every call that can change a vehicle's state or whether an id
  // exists: step, spawn, spawn_parked, despawn and find_mutable (its
  // pointer is for writes made before the next read of the epoch). Readers
  // memoize what they derive from the vehicles on it (DESIGN.md §4
  // "Control-plane cost").
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  // Bumped whenever vehicles may have left: by despawn and by a step that
  // ended trips. Readers that drop state of departed vehicles skip the
  // scan while it holds still.
  [[nodiscard]] std::uint64_t departures() const { return departures_; }

  // Predicted seconds until the vehicle exits the disc (center, radius),
  // walking its remaining route at current speed. Returns +inf for parked
  // vehicles or when the route never leaves the disc. This is the dwell-time
  // estimator used by the v-cloud scheduler (paper §III.A).
  [[nodiscard]] double predict_time_to_exit(VehicleId id, geo::Vec2 center,
                                            double radius) const;

  // Oracle variant for ablations: walks the route at per-link speed limits.
  [[nodiscard]] double oracle_time_to_exit(VehicleId id, geo::Vec2 center,
                                           double radius) const;

 private:
  // One vehicle in a lane bucket; `offset` is the sort key, copied so the
  // sort reads no vehicle state.
  struct LaneSlot {
    double offset;
    VehicleState* v;
  };

  void refresh_world_frame(VehicleState& v) const;
  void advance_vehicle(VehicleState& v, double dt,
                       const std::vector<LaneSlot>& lane_order,
                       std::size_t pos_in_lane);
  void rebuild_lane_index();
  [[nodiscard]] double route_time_to_exit(const VehicleState& v,
                                          geo::Vec2 center, double radius,
                                          bool use_speed_limits) const;

  const geo::RoadNetwork& net_;
  Rng rng_;
  std::unordered_map<std::uint64_t, VehicleState> vehicles_;
  // (link, lane) -> bucket in lane_buckets_ holding the lane's vehicles
  // sorted by decreasing offset (leader first). The map is rebuilt every
  // step in vehicles_ order, which fixes its iteration (and so the RNG)
  // order; the buckets are pooled across steps.
  std::unordered_map<std::uint64_t, std::uint32_t> lane_index_;
  std::vector<std::vector<LaneSlot>> lane_buckets_;
  std::uint64_t next_vehicle_id_ = 0;
  ArrivalHandler arrival_handler_;
  RightOfWayFn right_of_way_;
  SimTime now_ = 0.0;
  std::uint64_t epoch_ = 0;
  std::uint64_t departures_ = 0;
};

}  // namespace vcl::mobility
