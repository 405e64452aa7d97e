// Pseudonym-based authentication (paper §IV.B.1, first family).
//
// Each vehicle holds a pre-issued pool of TA-certified pseudonym key pairs
// and rotates through them. Verification = TA-cert check + CRL lookup +
// message-signature check (two signature verifications per message — the
// "high message authentication overhead" of Fig. 5). Privacy: unlinkable
// across rotations to outsiders, but the TA can always open, and reusing a
// pseudonym between rotations is linkable (the tracking adversary in
// src/attack exploits exactly this window).
#pragma once

#include <optional>

#include "auth/authority.h"
#include "crypto/cost_model.h"
#include "util/time.h"

namespace vcl::auth {

// Wire format common to all three protocol families; unused fields are
// zero. `wire_bytes` models the production-equivalent message overhead.
struct AuthTag {
  std::uint64_t credential_id = 0;  // pseudonym id / group id
  std::uint64_t epoch = 0;          // group key epoch (group/hybrid)
  std::uint64_t ephemeral_pub = 0;
  crypto::SchnorrSignature msg_sig;
  crypto::SchnorrSignature cert_sig;
  crypto::ElGamalCiphertext opening;  // escrowed identity (group/hybrid)
  crypto::Digest group_mac{};
  std::size_t wire_bytes = 0;
};

struct VerifyOutcome {
  bool ok = false;
  const char* reason = "";
  crypto::OpCounts ops;  // what the verifier spent
};

class PseudonymAuth {
 public:
  // Draws `pool_size` credentials from the TA for vehicle `v`.
  PseudonymAuth(TrustedAuthority& ta, VehicleId v, std::size_t pool_size,
                SimTime rotation_period = 60.0);

  [[nodiscard]] static const char* name() { return "pseudonym"; }

  // Signs a payload at simulation time `now`, rotating pseudonyms on
  // schedule. Returns nullopt when the pool is exhausted or empty.
  std::optional<AuthTag> sign(const crypto::Bytes& payload, SimTime now,
                              crypto::OpCounts& ops);

  // Stateless verification against the TA's public material.
  static VerifyOutcome verify(const TrustedAuthority& ta,
                              const crypto::Bytes& payload, const AuthTag& tag);

  [[nodiscard]] std::uint64_t current_pseudo_id() const;

 private:
  TrustedAuthority& ta_;
  crypto::Drbg drbg_;
  std::vector<PseudonymCredential> pool_;
  std::size_t current_ = 0;
  SimTime rotation_period_;
  SimTime last_rotation_ = 0.0;
};

}  // namespace vcl::auth
