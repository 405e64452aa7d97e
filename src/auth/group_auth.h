// Group-based authentication (paper §IV.B.1, second family; after [34],[15]).
//
// A group manager (cluster head or RSU) enrolls members and distributes a
// shared group MAC key plus the manager's escrow public key. A member tags a
// message with (a) an HMAC under the group key — any member can verify, no
// outsider can forge — and (b) an ElGamal encryption of its member id under
// the manager's key, so only the manager can de-anonymize ("conditional
// privacy ... known to the group coordinators", Fig. 5 / §IV.B).
//
// Simulation-grade honesty note: a shared-MAC scheme lets a malicious
// *insider* frame another member, which real group signatures prevent; the
// cost table (crypto/cost_model.h) therefore charges full group-signature
// costs so latency results transfer, and the limitation is documented in
// DESIGN.md.
#pragma once

#include <optional>
#include <unordered_map>

#include "auth/pseudonym.h"
#include "crypto/chaum_pedersen.h"

namespace vcl::auth {

class GroupManager {
 public:
  GroupManager(std::uint64_t group_id, std::uint64_t seed);

  [[nodiscard]] std::uint64_t group_id() const { return group_id_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::uint64_t escrow_pub() const { return escrow_key_.pub; }
  [[nodiscard]] const crypto::Bytes& group_key() const { return group_key_; }

  // Enrolls a member; returns its member id within the group.
  std::uint64_t enroll(VehicleId v);
  [[nodiscard]] bool is_enrolled(VehicleId v) const;
  [[nodiscard]] std::size_t member_count() const { return members_.size(); }

  // Removes a member and rotates the group key (new epoch); remaining
  // members must refresh their key material (re-`enrolled` state persists).
  void revoke(VehicleId v);

  // Opens the escrowed identity in a tag (manager-only capability).
  [[nodiscard]] std::optional<VehicleId> open(const AuthTag& tag) const;

  // Verifiable opening: the result carries a Chaum-Pedersen proof that the
  // ElGamal escrow was decrypted with the manager's real key, so third
  // parties (judges, disputants) can check the de-anonymization was honest
  // rather than fabricated — accountability for the opener (§V.B).
  struct VerifiableOpening {
    VehicleId vehicle;
    std::uint64_t shared = 0;          // c1^sk, the decryption witness
    std::uint64_t member_element = 0;  // recovered g^member_id
    crypto::ChaumPedersenProof proof;
  };
  [[nodiscard]] std::optional<VerifiableOpening> open_verifiable(
      const AuthTag& tag);
  // Anyone can check an opening against the tag and the manager's public
  // escrow key.
  [[nodiscard]] static bool check_opening(const AuthTag& tag,
                                          std::uint64_t escrow_pub,
                                          const VerifiableOpening& opening);

  // --- hybrid-protocol support ------------------------------------------------
  // Certifies a member's self-generated pseudonym key for the current
  // epoch; records pub -> vehicle so the manager retains opening capability.
  // Returns nullopt when the vehicle is not enrolled.
  std::optional<crypto::SchnorrSignature> certify_member_key(
      VehicleId v, std::uint64_t pseudo_pub);
  [[nodiscard]] bool check_member_cert(std::uint64_t pseudo_pub,
                                       std::uint64_t epoch,
                                       const crypto::SchnorrSignature& sig) const;
  // Opens a hybrid pseudonym (current epoch only).
  [[nodiscard]] std::optional<VehicleId> open_hybrid(
      std::uint64_t pseudo_pub) const;

 private:
  void rotate_key();

  std::uint64_t group_id_;
  crypto::Drbg drbg_;
  crypto::Bytes group_key_;
  crypto::SchnorrKeyPair escrow_key_;
  std::uint64_t epoch_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> members_;  // vehicle -> mid
  std::unordered_map<std::uint64_t, VehicleId> by_member_id_;
  std::unordered_map<std::uint64_t, VehicleId> hybrid_certs_;  // pub -> vehicle
  std::uint64_t next_member_id_ = 1;
};

class GroupAuth {
 public:
  // Member-side handle; the vehicle must already be enrolled.
  GroupAuth(GroupManager& manager, VehicleId v);

  [[nodiscard]] static const char* name() { return "group"; }

  // Tags a payload. Fails when the vehicle is not (or no longer) enrolled.
  std::optional<AuthTag> sign(const crypto::Bytes& payload,
                              crypto::OpCounts& ops);

  // Member-side verification (needs only public group state + group key).
  static VerifyOutcome verify(const GroupManager& manager,
                              const crypto::Bytes& payload,
                              const AuthTag& tag);

 private:
  GroupManager& manager_;
  VehicleId vehicle_;
  crypto::Drbg drbg_;
};

}  // namespace vcl::auth
