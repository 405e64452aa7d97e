// Man-in-the-middle at malicious relays (paper §III: "attackers can
// secretly relay or alter the network packets between two vehicles").
//
// A compromised relay forwards honestly (so the victims believe the path
// works) but flips a payload byte of every message it relays. Without
// end-to-end authentication the altered payload is consumed; with it, the
// signature check catches every altered message — the defense the paper's
// authentication section presumes.
#pragma once

#include "attack/adversary.h"
#include "routing/greedy_geo.h"

namespace vcl::attack {

class MitmGreedyRouter final : public routing::GreedyGeo {
 public:
  // `rng` picks the byte each tampering relay flips.
  MitmGreedyRouter(net::Network& net, const AdversaryRoster& roster, Rng rng)
      : routing::GreedyGeo(net), roster_(roster), rng_(rng) {}

  [[nodiscard]] const char* name() const override { return "greedy+mitm"; }
  [[nodiscard]] std::size_t tampered() const { return tampered_; }

 protected:
  void forward(VehicleId self, const net::Message& msg) override;

 private:
  const AdversaryRoster& roster_;
  Rng rng_;
  std::size_t tampered_ = 0;
};

}  // namespace vcl::attack
