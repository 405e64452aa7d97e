// Cost calibration: maps crypto operation counts onto wall-clock latencies
// of production-grade primitives on OBU-class hardware.
//
// The toy 61-bit group executes orders of magnitude faster than ECDSA-P256
// on a real on-board unit. Experiments that reason about the paper's
// "stringent time constraints" (authorization in milliseconds, §III.C) must
// charge realistic costs: protocols report *operation counts*, and the
// CostModel converts them to simulated seconds. Defaults follow published
// measurements for automotive-grade ARM OBUs (e.g. ~1-5 ms per ECDSA op);
// each figure bench states the numbers it assumes.
#pragma once

#include <cstddef>

#include "util/time.h"

namespace vcl::crypto {

enum class Op {
  kHash,          // SHA-256 over a short message
  kHmac,
  kSign,          // ECDSA/Schnorr-equivalent signature generation
  kVerify,        // signature verification
  kKemEncap,      // public-key encryption / encapsulation
  kKemDecap,
  kGroupSign,     // group signature generation (pairing-free estimate)
  kGroupVerify,
  kAbeEncrypt,    // per policy-tree leaf
  kAbeDecrypt,    // per satisfied leaf
};

struct OpCounts {
  std::size_t hash = 0;
  std::size_t hmac = 0;
  std::size_t sign = 0;
  std::size_t verify = 0;
  std::size_t kem_encap = 0;
  std::size_t kem_decap = 0;
  std::size_t group_sign = 0;
  std::size_t group_verify = 0;
  std::size_t abe_encrypt_leaves = 0;
  std::size_t abe_decrypt_leaves = 0;

  OpCounts& operator+=(const OpCounts& o);
};

class CostModel {
 public:
  // Default: OBU-class ARM Cortex-A (DSRC literature ballpark).
  CostModel() = default;

  [[nodiscard]] SimTime cost(Op op) const;
  [[nodiscard]] SimTime total(const OpCounts& counts) const;

  // Per-op overrides, seconds.
  SimTime hash_s = 5 * kMicroseconds;
  SimTime hmac_s = 8 * kMicroseconds;
  SimTime sign_s = 1.2 * kMilliseconds;
  SimTime verify_s = 2.0 * kMilliseconds;
  SimTime kem_encap_s = 1.6 * kMilliseconds;
  SimTime kem_decap_s = 1.4 * kMilliseconds;
  SimTime group_sign_s = 6.0 * kMilliseconds;
  SimTime group_verify_s = 9.0 * kMilliseconds;
  SimTime abe_leaf_encrypt_s = 2.2 * kMilliseconds;
  SimTime abe_leaf_decrypt_s = 1.8 * kMilliseconds;
};

}  // namespace vcl::crypto
