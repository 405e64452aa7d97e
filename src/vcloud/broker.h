// Broker election for dynamic v-clouds (paper §IV.A.2: "vehicles are
// selected in order to serve as the cloud brokers").
//
// The broker mediates task allocation; a good broker is both capable and
// likely to stay. Score = compute x min(dwell, 120 s); elections re-run each
// refresh, with hysteresis so a marginally-better challenger does not churn
// the brokership (every change re-syncs cloud state).
#pragma once

#include "vcloud/scheduler.h"

namespace vcl::vcloud {

struct BrokerConfig {
  double hysteresis = 1.25;  // challenger must beat incumbent by this factor
};

class BrokerElection {
 public:
  explicit BrokerElection(BrokerConfig config = {}) : config_(config) {}

  // Elects (or re-elects) from the member views; invalid id when empty.
  VehicleId elect(const std::vector<WorkerView>& members);

  [[nodiscard]] VehicleId current() const { return current_; }
  [[nodiscard]] std::size_t changes() const { return changes_; }

 private:
  [[nodiscard]] double score(const WorkerView& w) const;

  BrokerConfig config_;
  VehicleId current_;
  std::size_t changes_ = 0;
};

}  // namespace vcl::vcloud
