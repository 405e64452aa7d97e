// Greedy geographic forwarding with carry-and-forward recovery (GPSR-lite).
//
// Each hop forwards to the neighbor that makes the most progress toward the
// destination's position. When no neighbor is closer than the current
// carrier (a local maximum), the message is buffered and retried on the
// carry tick — the standard VANET recovery once the vehicle has moved.
#pragma once

#include "routing/router.h"

namespace vcl::routing {

class GreedyGeo : public Router {
 public:
  explicit GreedyGeo(net::Network& net) : Router(net) {}

  [[nodiscard]] const char* name() const override { return "greedy_geo"; }

 protected:
  void forward(VehicleId self, const net::Message& msg) override;
};

}  // namespace vcl::routing
