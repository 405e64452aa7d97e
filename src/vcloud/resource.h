// Vehicle resource profiles and pool aggregation (paper Fig. 1 / E5).
//
// Higher SAE automation levels carry richer on-board equipment — more
// compute, storage, sensing — and therefore contribute more to a v-cloud's
// pooled capacity. Units are deliberately simple: compute in abstract
// work-units/second, storage in MB, bandwidth in Mbit/s.
#pragma once

#include <cstddef>

#include "mobility/vehicle.h"

namespace vcl::vcloud {

struct ResourceProfile {
  double compute = 1.0;      // work units per second
  double storage_mb = 256;
  double bandwidth_mbps = 6;
  int sensor_count = 1;      // distinct sensing modalities on board

  friend bool operator==(const ResourceProfile&,
                         const ResourceProfile&) = default;
};

// Equipment scaling by automation level (Fig. 1's gradient, quantified).
ResourceProfile profile_for(mobility::AutomationLevel level);

struct ResourcePool {
  double compute = 0.0;
  double storage_mb = 0.0;
  double bandwidth_mbps = 0.0;
  int sensor_count = 0;
  std::size_t members = 0;

  void add(const ResourceProfile& p) {
    compute += p.compute;
    storage_mb += p.storage_mb;
    bandwidth_mbps += p.bandwidth_mbps;
    sensor_count += p.sensor_count;
    ++members;
  }
};

}  // namespace vcl::vcloud
