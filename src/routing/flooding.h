// Flooding with duplicate suppression: the delivery-ratio upper bound and
// overhead worst case among the protocols (baseline for E6).
#pragma once

#include "routing/router.h"

namespace vcl::routing {

class Flooding final : public Router {
 public:
  explicit Flooding(net::Network& net) : Router(net) {}

  [[nodiscard]] const char* name() const override { return "flooding"; }

 protected:
  void forward(VehicleId self, const net::Message& msg) override;
};

}  // namespace vcl::routing
