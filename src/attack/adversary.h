// Adversary population management.
//
// Experiments designate a fraction of vehicles as attacker-controlled; the
// concrete attack classes (false data, Sybil, replay, suppression, DoS,
// tracking) read the roster from here so "20% attackers" means the same set
// across every module in one scenario.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_set>
#include <vector>

#include "mobility/traffic.h"
#include "util/rng.h"
#include "util/time.h"

namespace vcl::attack {

// Adversarial-chaos episode knobs (paper §IV): storm intensities for the
// three attack shapes ChaosPlanner generates, plus the defense-side policy
// the cloud's admission path enforces. `enabled == false` is the inertness
// contract: no storms are drawn, no admission state is allocated, and a run
// is bit-identical to one built before this struct existed.
struct AdversaryConfig {
  bool enabled = false;

  // Storm intensities (storms per second over the episode horizon).
  double sybil_rate = 0.0;
  std::size_t sybil_count = 3;  // fabricated joins per sybil burst
  double revoke_rate = 0.0;
  double replay_rate = 0.0;

  // Defense policy. `defend == false` runs the same storms with admission
  // wide open — the vulnerable baseline the E24 bench compares against.
  bool defend = true;
  SimTime freshness_window = 2.0;  // replayed joins/acks older than this die
  // Fabricated identities the verification policy tolerates as full members
  // (0 under the strict policy: every sybil is quarantined, never admitted).
  std::size_t max_unverified_admissions = 0;
};

// Mirrors validate(FaultPlanConfig): empty string when sane, else a
// one-line description of the first problem. `fleet_size` is the honest
// vehicle population; a sybil burst larger than the fleet is a config
// error, not a storm.
[[nodiscard]] std::string validate(const AdversaryConfig& config,
                                   std::size_t fleet_size);

// Throws std::invalid_argument("AdversaryConfig: ...") when validate()
// reports a problem. Called by the system wiring before any storm is drawn.
void validate_or_throw(const AdversaryConfig& config, std::size_t fleet_size);

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
