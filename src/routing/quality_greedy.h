// Quality-weighted greedy forwarding.
//
// The E16 ablation shows plain greedy-geo degrading when neighbor tables
// accumulate marginal entries: maximum geographic progress is usually a
// far-away neighbor over a lossy link. QualityGreedy scores candidates by
// expected progress — progress x estimated reception probability (from the
// channel model at the entry's last known position) — which keeps hops on
// reliable links without giving up on progress.
#pragma once

#include "routing/router.h"

namespace vcl::routing {

class QualityGreedy final : public Router {
 public:
  explicit QualityGreedy(net::Network& net) : Router(net) {}

  [[nodiscard]] const char* name() const override { return "quality_greedy"; }

 protected:
  void forward(VehicleId self, const net::Message& msg) override;
};

}  // namespace vcl::routing
