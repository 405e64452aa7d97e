// Message suppression / delay at malicious relays (paper §III: "message
// delay and suppression attacks").
//
// A compromised vehicle that is asked to forward a message silently drops it
// (probability `drop_prob`) or sits on it for `delay` seconds before
// forwarding honestly. Implemented by overriding the forwarding hook of the
// underlying protocol (greedy-geo here; the pattern applies to any Router).
#pragma once

#include "attack/adversary.h"
#include "routing/greedy_geo.h"

namespace vcl::attack {

struct SuppressionConfig {
  double drop_prob = 1.0;  // 1.0 = pure suppression; <1 mixes in delays
  SimTime delay = 5.0;     // applied when not dropped
};

class SuppressedGreedyRouter final : public routing::GreedyGeo {
 public:
  SuppressedGreedyRouter(net::Network& net, const AdversaryRoster& roster,
                         SuppressionConfig config, Rng rng)
      : routing::GreedyGeo(net),
        roster_(roster),
        config_(config),
        rng_(rng) {}

  [[nodiscard]] const char* name() const override {
    return "greedy_geo+suppression";
  }

  [[nodiscard]] std::size_t suppressed() const { return suppressed_; }
  [[nodiscard]] std::size_t delayed() const { return delayed_; }

 protected:
  void forward(VehicleId self, const net::Message& msg) override;

 private:
  const AdversaryRoster& roster_;
  SuppressionConfig config_;
  Rng rng_;
  std::size_t suppressed_ = 0;
  std::size_t delayed_ = 0;
};

}  // namespace vcl::attack
