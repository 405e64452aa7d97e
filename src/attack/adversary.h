// Adversary population management.
//
// Experiments designate a fraction of vehicles as attacker-controlled; the
// concrete attack classes (false data, Sybil, replay, suppression, DoS,
// tracking) read the roster from here so "20% attackers" means the same set
// across every module in one scenario.
#pragma once

#include <cstddef>
#include <unordered_set>
#include <vector>

#include "mobility/traffic.h"
#include "util/rng.h"

namespace vcl::attack {

class AdversaryRoster {
 public:
  AdversaryRoster() = default;

  // Marks `fraction` of the current vehicle population as malicious.
  void recruit(const mobility::TrafficModel& traffic, double fraction,
               Rng& rng);
  void add(VehicleId v) { members_.insert(v.value()); }

  [[nodiscard]] bool is_malicious(VehicleId v) const {
    return members_.count(v.value()) != 0;
  }
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] std::vector<VehicleId> members() const;

 private:
  std::unordered_set<std::uint64_t> members_;
};

}  // namespace vcl::attack
