// Passive multi-hop clustering (PMC, Zhang et al. [46]).
//
// Vehicles passively follow the most stable neighbor within N hops: each
// vehicle points at the neighbor with the highest priority (lowest relative
// mobility); chains of "following" relationships terminate at local maxima,
// which become cluster heads. Members further than 2 hops from their
// head break off and form their own cluster.
#pragma once

#include "cluster/cluster_manager.h"

namespace vcl::cluster {

class PassiveClustering final : public ClusterManager {
 public:
  explicit PassiveClustering(net::Network& net) : ClusterManager(net) {}

  [[nodiscard]] const char* name() const override { return "pmc"; }
  void update() override;
};

}  // namespace vcl::cluster
