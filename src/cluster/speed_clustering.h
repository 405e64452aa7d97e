// Mobility-based cluster-head election (MOBIC-style baseline).
//
// A vehicle's suitability as head is high when its velocity matches its
// neighborhood (low relative mobility) and it hears many neighbors. This is
// the classical baseline the survey's clustering papers improve upon.
#pragma once

#include "cluster/cluster_manager.h"

namespace vcl::cluster {

class SpeedClustering final : public ClusterManager {
 public:
  explicit SpeedClustering(net::Network& net) : ClusterManager(net) {}

  [[nodiscard]] const char* name() const override { return "speed"; }
  void update() override;
};

}  // namespace vcl::cluster
