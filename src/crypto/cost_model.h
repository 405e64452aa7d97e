// Cost calibration: maps crypto operation counts onto wall-clock latencies
// of production-grade primitives on OBU-class hardware.
//
// The toy 61-bit group executes orders of magnitude faster than ECDSA-P256
// on a real on-board unit. Experiments that reason about the paper's
// "stringent time constraints" (authorization in milliseconds, §III.C) must
// charge realistic costs: protocols report *operation counts*, and
// `cost`/`total` convert them to simulated seconds through one fixed table
// (cost_model.cpp) that follows published measurements for automotive-grade
// ARM OBUs (e.g. ~1-5 ms per ECDSA op).
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

// Simulated seconds one `op` costs on an OBU-class ARM Cortex-A (DSRC
// literature ballpark).
[[nodiscard]] SimTime cost(Op op);
// Sum of cost(op) x count over every op in `counts`.
[[nodiscard]] SimTime total(const OpCounts& counts);

}  // namespace vcl::crypto
