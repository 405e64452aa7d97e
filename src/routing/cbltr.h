// Cluster-Based Lifetime Routing (after Abuashour & Kadoch's CBLTR [1]).
//
// Next-hop selection maximizes the *expected link lifetime* among neighbors
// that make geographic progress: favoring links that will survive longest
// trades a little per-hop progress for far fewer broken-route retransmits
// in high-relative-speed traffic.
#pragma once

#include "routing/router.h"

namespace vcl::routing {

class Cbltr final : public Router {
 public:
  explicit Cbltr(net::Network& net) : Router(net) {}

  [[nodiscard]] const char* name() const override { return "cbltr"; }

 protected:
  void forward(VehicleId self, const net::Message& msg) override;
};

}  // namespace vcl::routing
