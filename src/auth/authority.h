// Trusted authority (TA): vehicle registration, pseudonym issuance,
// revocation and threshold-escrowed identity opening.
//
// The paper's central tension (§III.B): vehicles must be *accountable*
// (liability requires recovering real identities) yet *private* (no party
// should track them casually). The TA resolves it the way the surveyed
// schemes do — pseudonyms unlinkable to outsiders, with the
// pseudonym-to-identity map escrowed so that `open()` requires a quorum of
// authority shares (Shamir threshold) rather than one curious insider.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "auth/crl.h"
#include "crypto/elgamal.h"
#include "crypto/schnorr.h"
#include "crypto/shamir.h"
#include "util/ids.h"

namespace vcl::auth {

struct PseudonymCert {
  std::uint64_t pseudo_id = 0;
  std::uint64_t pub = 0;                 // pseudonym public key
  crypto::SchnorrSignature ta_sig;       // TA signature over (pseudo_id, pub)
};

// A vehicle's private view of one pseudonym.
struct PseudonymCredential {
  PseudonymCert cert;
  std::uint64_t secret = 0;
};

class TrustedAuthority {
 public:
  // 2 of the 3 authorities' escrow shares are needed to de-anonymize a
  // credential.
  explicit TrustedAuthority(std::uint64_t seed);

  [[nodiscard]] std::uint64_t public_key() const { return keypair_.pub; }
  [[nodiscard]] const crypto::SchnorrGroup& group() const { return group_; }

  // --- registration & pseudonyms --------------------------------------------
  void register_vehicle(VehicleId v);
  [[nodiscard]] bool is_registered(VehicleId v) const;

  // Issues `n` pseudonym credentials to a registered vehicle; records the
  // pseudo_id -> vehicle escrow mapping.
  std::vector<PseudonymCredential> issue_pseudonyms(VehicleId v,
                                                    std::size_t n);

  // Signs (pseudo_id, pub) — exposed so group managers can reuse the TA's
  // certificate format in the hybrid protocol.
  [[nodiscard]] crypto::SchnorrSignature certify(std::uint64_t pseudo_id,
                                                 std::uint64_t pub);
  [[nodiscard]] bool check_cert(const PseudonymCert& cert) const;

  // --- revocation -------------------------------------------------------------
  // Revokes every pseudonym ever issued to the vehicle.
  void revoke_vehicle(VehicleId v);
  [[nodiscard]] const Crl& crl() const { return crl_; }
  [[nodiscard]] Crl& crl() { return crl_; }

  // --- identity opening (threshold escrow) ------------------------------------
  // Recovers the real identity behind a pseudonym using `shares` of the
  // escrow key (>= threshold distinct authority shares required).
  [[nodiscard]] std::optional<VehicleId> open(
      std::uint64_t pseudo_id, const std::vector<crypto::Share>& shares) const;
  // Authority share `i` (0-based) for quorum assembly.
  [[nodiscard]] crypto::Share escrow_share(std::size_t i) const;

  crypto::Drbg& drbg() { return drbg_; }

 private:
  const crypto::SchnorrGroup& group_;
  crypto::Drbg drbg_;
  crypto::Schnorr schnorr_;
  crypto::SchnorrKeyPair keypair_;
  Crl crl_;

  // Escrow: pseudo_id -> vehicle, sealed under an escrow secret split among
  // the authorities. (The map itself is stored encrypted-at-rest in a real
  // deployment; here the secrecy is enforced by requiring a share quorum in
  // the API.)
  std::uint64_t escrow_secret_;
  std::vector<crypto::Share> escrow_shares_;
  std::unordered_map<std::uint64_t, VehicleId> escrow_map_;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> issued_;
  std::unordered_map<std::uint64_t, bool> registered_;
  std::uint64_t next_pseudo_id_ = 1;
};

// Serializes (pseudo_id, pub) for certificate signing.
crypto::Bytes cert_body(std::uint64_t pseudo_id, std::uint64_t pub);

}  // namespace vcl::auth
