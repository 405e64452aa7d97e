// Fuzzy-logic cluster-head scoring (after Wu et al. [41]).
//
// Three crisp inputs — velocity deviation from the neighborhood, spatial
// centrality, and degree — pass through triangular membership functions and
// a small Mamdani-style rule base to yield a head-suitability score. The
// fuzzy blend tolerates noisy single metrics better than any one of them
// alone, which is the claim E7 (clustering stability bench) checks.
#pragma once

#include "cluster/cluster_manager.h"

namespace vcl::cluster {

// Triangular membership helpers exposed for unit tests.
double membership_low(double x, double full_at);   // 1 at 0, 0 at full_at
double membership_high(double x, double full_at);  // 0 at 0, 1 at full_at

class FuzzyClustering final : public ClusterManager {
 public:
  explicit FuzzyClustering(net::Network& net) : ClusterManager(net) {}

  [[nodiscard]] const char* name() const override { return "fuzzy"; }
  void update() override;

  // Suitability in [0,1] given crisp inputs; pure so tests can probe it.
  [[nodiscard]] double suitability(double speed_dev, double mean_dist,
                                   double degree) const;
};

}  // namespace vcl::cluster
