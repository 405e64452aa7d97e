// Moving-zone grouping (MoZo, Lin et al. [22]).
//
// Vehicles with similar velocity vectors that can hear each other form a
// *moving zone*; the member closest to the zone's kinematic average becomes
// the captain and maintains the membership table. Zones are rebuilt as
// connected components of the "similar velocity AND in radio range"
// relation — zones naturally merge and split as traffic evolves, which is
// exactly the behaviour MoZo exploits for infrastructure-free routing.
#pragma once

#include "cluster/cluster_manager.h"

namespace vcl::cluster {

struct MovingZoneConfig {
  double max_speed_diff = 6.0;    // m/s
  double max_angle_rad = 0.6;     // heading difference (~34 degrees)
  double captain_hysteresis = 30.0;  // meters of centroid-distance slack
};

class MovingZone final : public ClusterManager {
 public:
  MovingZone(net::Network& net, MovingZoneConfig config = {})
      : ClusterManager(net), config_(config) {}

  [[nodiscard]] const char* name() const override { return "mozo"; }
  void update() override;

  // Velocity-compatibility predicate (exposed for tests).
  [[nodiscard]] bool compatible(geo::Vec2 vel_a, geo::Vec2 vel_b) const;

 private:
  // compatible() with both speeds (the velocity norms) already computed.
  [[nodiscard]] bool compatible(geo::Vec2 vel_a, double speed_a,
                                geo::Vec2 vel_b, double speed_b) const;

  MovingZoneConfig config_;
  // update() scratch, indexed by slot (position in vehicles() order) or,
  // for slot_by_id_, by vehicle id; kept to reuse the allocations.
  std::vector<const mobility::VehicleState*> vehicle_;
  std::vector<double> speed_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> slot_by_id_;
};

}  // namespace vcl::cluster
