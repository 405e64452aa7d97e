// MoZo routing (Lin, Kang et al. [22]): moving-zone based delivery using
// pure V2V communication.
//
// Within a zone, the captain's membership table yields the next hop
// directly. Across zones, messages travel greedily between captains until
// they reach the destination's zone. The zone structure is provided by a
// MovingZone cluster manager kept updated alongside the router.
#pragma once

#include "cluster/moving_zone.h"
#include "routing/router.h"

namespace vcl::routing {

class MozoRouting final : public Router {
 public:
  MozoRouting(net::Network& net, cluster::MovingZone& zones)
      : Router(net), zones_(zones) {}

  [[nodiscard]] const char* name() const override { return "mozo"; }

 protected:
  void forward(VehicleId self, const net::Message& msg) override;

 private:
  cluster::MovingZone& zones_;
};

}  // namespace vcl::routing
