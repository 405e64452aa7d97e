#include "vcloud/dependability.h"

#include <algorithm>
#include <cmath>

namespace vcl::vcloud {

DependabilityConfig full_mitigation() {
  DependabilityConfig dep;
  dep.detector.enabled = true;
  dep.detector.missed_beats_to_kill = 6;
  dep.checkpoint.enabled = true;
  dep.checkpoint.period = 5.0;
  dep.retry.enabled = true;
  dep.speculation.enabled = true;
  dep.broker_resync_delay = 0.5;
  return dep;
}

SimTime retry_backoff(const RetryConfig& config, int attempt, Rng& rng) {
  const double exponent = static_cast<double>(std::max(0, attempt - 1));
  const SimTime base = config.ack_timeout * std::pow(config.backoff, exponent);
  const double jitter = config.jitter * rng.uniform(-1.0, 1.0);
  return std::max(1e-3, base * (1.0 + jitter));
}

void FailureDetector::track(VehicleId v, SimTime now) {
  last_heard_[v.value()] = now;
}

void FailureDetector::observe(VehicleId v, SimTime now) {
  last_heard_[v.value()] = now;
}

void FailureDetector::forget(VehicleId v) { last_heard_.erase(v.value()); }

void FailureDetector::reset_all(SimTime now) {
  for (auto& [vid, heard] : last_heard_) heard = now;
}

bool FailureDetector::tracked(VehicleId v) const {
  return last_heard_.find(v.value()) != last_heard_.end();
}

std::vector<VehicleId> FailureDetector::tracked_ids() const {
  std::vector<VehicleId> out;
  out.reserve(last_heard_.size());
  for (const auto& [vid, heard] : last_heard_) out.push_back(VehicleId{vid});
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<VehicleId> FailureDetector::sweep(SimTime now) const {
  std::vector<VehicleId> dead;
  const SimTime cutoff = kill_after();
  for (const auto& [vid, heard] : last_heard_) {
    if (now - heard > cutoff) dead.push_back(VehicleId{vid});
  }
  std::sort(dead.begin(), dead.end());
  return dead;
}

}  // namespace vcl::vcloud
