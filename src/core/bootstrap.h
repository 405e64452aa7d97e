// Secure v-cloud initialization (paper §V.A "V-cloud initialization").
//
// When a vehicle first logs into the VANET it must: hear neighbors (hello
// beacons), register with the authority — directly through an RSU when
// covered, else relayed by an already-joined neighbor — obtain its
// pseudonym pool, and establish pairwise session keys with its neighbors
// (real Diffie-Hellman in the Schnorr group). The protocol is a per-vehicle
// state machine driven off the beacon rounds; joining latency and the
// RSU-vs-relay mix are the measurable outputs.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "auth/pseudonym.h"
#include "net/network.h"
#include "util/stats.h"

namespace vcl::core {

enum class JoinState : std::uint8_t {
  kUnregistered,  // just spawned; listening for hellos
  kRegistering,   // registration round-trip in flight
  kJoined,
};

struct JoinRecord {
  JoinState state = JoinState::kUnregistered;
  SimTime started = 0.0;
  SimTime joined_at = 0.0;
  bool via_rsu = false;  // direct RSU registration vs neighbor relay
};

class BootstrapProtocol {
 public:
  BootstrapProtocol(net::Network& net, auth::TrustedAuthority& ta);

  // Drives the state machines once per simulated second.
  void attach();
  void step();  // public for tests

  [[nodiscard]] JoinState state(VehicleId v) const;
  [[nodiscard]] bool joined(VehicleId v) const {
    return state(v) == JoinState::kJoined;
  }
  [[nodiscard]] std::size_t joined_count() const;
  [[nodiscard]] std::size_t via_rsu_count() const { return via_rsu_; }
  [[nodiscard]] std::size_t via_relay_count() const { return via_relay_; }
  [[nodiscard]] const Accumulator& join_latency() const {
    return join_latency_;
  }
  // Every join's latency, in join order (for exact percentiles).
  [[nodiscard]] const std::vector<double>& join_latencies() const {
    return join_latencies_;
  }

  // Pairwise session key between two joined vehicles (Diffie-Hellman in
  // the Schnorr group, keys derived on demand); nullopt unless both are
  // joined. Symmetric: session_key(a,b) == session_key(b,a).
  [[nodiscard]] std::optional<crypto::Digest> session_key(VehicleId a,
                                                          VehicleId b) const;

  // The vehicle's signer handle once joined (for the auth protocols).
  [[nodiscard]] auth::PseudonymAuth* signer(VehicleId v);

 private:
  [[nodiscard]] SimTime registration_latency(VehicleId v, bool via_rsu) const;
  void complete_join(VehicleId v, bool via_rsu);

  net::Network& net_;
  auth::TrustedAuthority& ta_;
  std::unordered_map<std::uint64_t, JoinRecord> records_;
  std::unordered_map<std::uint64_t, std::unique_ptr<auth::PseudonymAuth>>
      signers_;
  std::unordered_map<std::uint64_t, crypto::SchnorrKeyPair> dh_keys_;
  crypto::Drbg drbg_;
  Accumulator join_latency_;
  std::vector<double> join_latencies_;
  std::size_t via_rsu_ = 0;
  std::size_t via_relay_ = 0;
};

}  // namespace vcl::core
