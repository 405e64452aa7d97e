// Schnorr group: prime-order subgroup of Z_p^* with p = 2q + 1 (safe prime).
//
// SIMULATION-GRADE CRYPTOGRAPHY. The modulus is ~61 bits so that all group
// arithmetic fits in unsigned __int128 and runs fast inside the simulator.
// Every protocol built on this group (Schnorr signatures, ElGamal, the
// ABE-style policy encryption) is algebraically faithful — signatures really
// verify, forgeries really fail, decryption really requires satisfying
// attribute shares — but the key size offers NO real-world security. The
// cost table (crypto/cost_model.h) maps operation counts onto published
// OBU-class ECDSA-P256 timings when an experiment needs absolute latencies.
#pragma once

#include <cstdint>

#include "crypto/sha256.h"

namespace vcl::crypto {

class SchnorrGroup {
 public:
  // Deterministically derives a safe prime p = 2q + 1 (p ~ 2^61) and a
  // generator g of the order-q subgroup from `domain_seed`. Identical seeds
  // give identical groups, so all parties in a scenario share parameters.
  static SchnorrGroup derive(std::uint64_t domain_seed);

  [[nodiscard]] std::uint64_t p() const { return p_; }
  [[nodiscard]] std::uint64_t q() const { return q_; }
  [[nodiscard]] std::uint64_t g() const { return g_; }

  // Group operations (elements are in the order-q subgroup of Z_p^*).
  [[nodiscard]] std::uint64_t mul(std::uint64_t a, std::uint64_t b) const;
  [[nodiscard]] std::uint64_t pow_g(std::uint64_t exp) const;  // g^exp mod p
  [[nodiscard]] std::uint64_t pow(std::uint64_t base, std::uint64_t exp) const;
  [[nodiscard]] std::uint64_t inv(std::uint64_t a) const;

  // Scalar (exponent) arithmetic mod q.
  [[nodiscard]] std::uint64_t scalar_add(std::uint64_t a,
                                         std::uint64_t b) const;
  [[nodiscard]] std::uint64_t scalar_mul(std::uint64_t a,
                                         std::uint64_t b) const;
  [[nodiscard]] std::uint64_t scalar_inv(std::uint64_t a) const;

  // Hash arbitrary bytes to a scalar mod q (Fiat-Shamir challenges).
  [[nodiscard]] std::uint64_t hash_to_scalar(const Bytes& data) const;

  [[nodiscard]] bool is_element(std::uint64_t a) const;

 private:
  SchnorrGroup(std::uint64_t p, std::uint64_t q, std::uint64_t g)
      : p_(p), q_(q), g_(g) {}

  std::uint64_t p_;
  std::uint64_t q_;
  std::uint64_t g_;
};

// Process-wide default group (seed 0xVCL). Derivation runs once.
const SchnorrGroup& default_group();

}  // namespace vcl::crypto
