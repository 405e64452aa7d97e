// Policy-tree attribute-based encryption (ciphertext-policy), built on
// Shamir secret sharing in the exponent of the Schnorr group.
//
// Construction (Goyal/SmartVeh-style, pairing-free):
//   Setup:    master secret y, public Y = g^y; per-attribute secret
//             t_a = H(master_seed, a), public T_a = g^{t_a}.
//   Encrypt:  random s; C0 = m * Y^s; share s down the policy tree
//             (AND = n-of-n Shamir, OR = duplication, k-of-n = Shamir);
//             each leaf for attribute a carries C_leaf = g^{t_a * s_leaf}.
//   KeyGen:   user key for attribute a is d_a = y / t_a (mod q).
//   Decrypt:  C_leaf^{d_a} = g^{y * s_leaf}; Lagrange-combine up the tree to
//             Y^s; m = C0 / Y^s.
//
// Functional completeness is exact: decryption succeeds IFF the attribute
// set satisfies the policy tree (property-tested). LIMITATION (documented in
// DESIGN.md): keys are not per-user randomized, so two users can pool
// attributes (collusion) — acceptable for a simulation substrate, never for
// production. Costs are charged per leaf via crypto::total so the paper's
// "authorization within stringent time constraints" experiments (E12) see
// production-shaped latencies.
#pragma once

#include <optional>
#include <unordered_map>

#include "access/policy.h"
#include "crypto/cost_model.h"
#include "crypto/elgamal.h"
#include "crypto/schnorr.h"

namespace vcl::access {

// Per-user decryption key: attribute -> d_a.
struct AbeUserKey {
  std::unordered_map<Attribute, std::uint64_t> components;
};

struct AbeCiphertext {
  std::uint64_t c0 = 0;  // m * Y^s
  // leaf_id -> (attribute, g^{t_a * s_leaf})
  std::vector<std::pair<Attribute, std::uint64_t>> leaf_components;
  Policy policy;

  explicit AbeCiphertext(Policy p) : policy(std::move(p)) {}
  AbeCiphertext(AbeCiphertext&&) = default;
  AbeCiphertext& operator=(AbeCiphertext&&) = default;
};

// Hybrid package: ABE-wrapped key + authenticated byte payload.
struct AbePackage {
  AbeCiphertext header;
  crypto::Bytes body;
  crypto::Digest tag{};

  explicit AbePackage(AbeCiphertext h) : header(std::move(h)) {}
};

class AbeAuthority {
 public:
  explicit AbeAuthority(std::uint64_t seed);

  // Issues the key components for an attribute set.
  [[nodiscard]] AbeUserKey keygen(const AttributeSet& attrs) const;

  // Encrypts a group element under a policy.
  [[nodiscard]] AbeCiphertext encrypt(std::uint64_t m, const Policy& policy,
                                      crypto::Drbg& drbg,
                                      crypto::OpCounts& ops) const;
  // Seals an arbitrary byte payload under a policy (hybrid).
  [[nodiscard]] AbePackage seal(const crypto::Bytes& plain,
                                const Policy& policy, crypto::Drbg& drbg,
                                crypto::OpCounts& ops) const;

  // Decryption is authority-independent given the ciphertext + user key; it
  // lives here for symmetry and access to the group.
  [[nodiscard]] static std::optional<std::uint64_t> decrypt(
      const AbeCiphertext& ct, const AbeUserKey& key,
      const AttributeSet& attrs, crypto::OpCounts& ops);
  [[nodiscard]] static std::optional<crypto::Bytes> open(
      const AbePackage& pkg, const AbeUserKey& key, const AttributeSet& attrs,
      crypto::OpCounts& ops);

  [[nodiscard]] std::uint64_t public_key() const { return big_y_; }

 private:
  [[nodiscard]] std::uint64_t attr_secret(const Attribute& a) const;

  const crypto::SchnorrGroup& group_;
  std::uint64_t master_seed_;
  std::uint64_t y_;      // master secret
  std::uint64_t big_y_;  // Y = g^y
};

}  // namespace vcl::access
