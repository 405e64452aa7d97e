#include "vcloud/broker.h"

#include <algorithm>

namespace vcl::vcloud {
namespace {

constexpr double kDwellCap = 120.0;  // seconds of dwell that saturate the score

}  // namespace

double BrokerElection::score(const WorkerView& w) const {
  return w.profile.compute * std::min(w.dwell_seconds, kDwellCap);
}

VehicleId BrokerElection::elect(const std::vector<WorkerView>& members) {
  const WorkerView* best = nullptr;
  const WorkerView* incumbent = nullptr;
  for (const WorkerView& w : members) {
    if (w.id == current_) incumbent = &w;
    if (best == nullptr || score(w) > score(*best)) best = &w;
  }
  if (best == nullptr) {
    if (current_.valid()) ++changes_;
    current_ = VehicleId{};
    return current_;
  }
  if (incumbent != nullptr &&
      score(*best) < score(*incumbent) * config_.hysteresis) {
    return current_;  // incumbent survives the challenge
  }
  if (!(best->id == current_)) {
    if (current_.valid()) ++changes_;  // first election is not a "change"
    current_ = best->id;
  }
  return current_;
}

}  // namespace vcl::vcloud
