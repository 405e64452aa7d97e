#include "attack/mitm.h"

namespace vcl::attack {

void MitmGreedyRouter::forward(VehicleId self, const net::Message& msg) {
  const bool is_relay = msg.hops > 0 &&
                        !(msg.src.is_vehicle() && msg.src.as_vehicle() == self);
  if (is_relay && roster_.is_malicious(self) && !msg.payload.empty()) {
    net::Message altered = msg;
    // Flip one byte: enough to corrupt content while keeping size/shape
    // (traffic-analysis-resistant tampering).
    const std::size_t at = rng_.index(altered.payload.size());
    altered.payload[at] ^= 0xff;
    ++tampered_;
    routing::GreedyGeo::forward(self, altered);
    return;
  }
  routing::GreedyGeo::forward(self, msg);
}

}  // namespace vcl::attack
