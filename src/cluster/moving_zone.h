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

class MovingZone final : public ClusterManager {
 public:
  explicit MovingZone(net::Network& net) : ClusterManager(net) {}

  [[nodiscard]] const char* name() const override { return "mozo"; }
  void update() override;

  // Velocity-compatibility predicate, with both speeds (the velocity
  // norms) already computed.
  [[nodiscard]] bool compatible(geo::Vec2 vel_a, double speed_a,
                                geo::Vec2 vel_b, double speed_b) const;

 private:
  // update() scratch, indexed by slot (position in vehicles() order) or,
  // for slot_by_id_, by vehicle id; kept to reuse the allocations.
  std::vector<const mobility::VehicleState*> vehicle_;
  std::vector<double> speed_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> slot_by_id_;
};

}  // namespace vcl::cluster
