// Man-in-the-middle at malicious relays (paper §III: "attackers can
// secretly relay or alter the network packets between two vehicles").
//
// A compromised relay forwards honestly (so the victims believe the path
// works) but flips payload bits with probability `tamper_prob`. Without
// end-to-end authentication the altered payload is consumed; with it, the
// signature check catches every altered message — the defense the paper's
// authentication section presumes.
#pragma once

#include "attack/adversary.h"
#include "routing/greedy_geo.h"

namespace vcl::attack {

struct MitmConfig {
  double tamper_prob = 1.0;
};

class MitmGreedyRouter final : public routing::GreedyGeo {
 public:
  MitmGreedyRouter(net::Network& net, const AdversaryRoster& roster,
                   MitmConfig config, Rng rng)
      : routing::GreedyGeo(net),
        roster_(roster),
        config_(config),
        rng_(rng) {}

  [[nodiscard]] const char* name() const override { return "greedy+mitm"; }
  [[nodiscard]] std::size_t tampered() const { return tampered_; }

 protected:
  void forward(VehicleId self, const net::Message& msg) override;

 private:
  const AdversaryRoster& roster_;
  MitmConfig config_;
  Rng rng_;
  std::size_t tampered_ = 0;
};

}  // namespace vcl::attack
