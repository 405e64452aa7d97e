#include "crypto/group.h"

#include "crypto/drbg.h"
#include "crypto/modmath.h"

namespace vcl::crypto {

SchnorrGroup SchnorrGroup::derive(std::uint64_t domain_seed) {
  Drbg drbg(domain_seed ^ 0x5343484e4f5252ULL /* "SCHNORR" */);
  // Search for q prime with p = 2q + 1 also prime, q ~ 2^60.
  std::uint64_t q = (drbg.next_u64() >> 4) | (1ULL << 60) | 1ULL;
  for (;;) {
    if (is_prime(q)) {
      const std::uint64_t p = 2 * q + 1;
      if (is_prime(p)) {
        // Any a with a^2 != 1 gives a generator g = a^2 of the order-q
        // subgroup (quadratic residues).
        for (std::uint64_t a = 2;; ++a) {
          const std::uint64_t g = mod_mul(a, a, p);
          if (g != 1) return SchnorrGroup(p, q, g);
        }
      }
    }
    q += 2;
  }
}

std::uint64_t SchnorrGroup::mul(std::uint64_t a, std::uint64_t b) const {
  return mod_mul(a, b, p_);
}

std::uint64_t SchnorrGroup::pow_g(std::uint64_t exp) const {
  return mod_pow(g_, exp, p_);
}

std::uint64_t SchnorrGroup::pow(std::uint64_t base, std::uint64_t exp) const {
  return mod_pow(base, exp, p_);
}

std::uint64_t SchnorrGroup::inv(std::uint64_t a) const {
  return mod_inv(a, p_);
}

std::uint64_t SchnorrGroup::scalar_add(std::uint64_t a,
                                       std::uint64_t b) const {
  return mod_add(a, b, q_);
}

std::uint64_t SchnorrGroup::scalar_mul(std::uint64_t a,
                                       std::uint64_t b) const {
  return mod_mul(a, b, q_);
}

std::uint64_t SchnorrGroup::scalar_inv(std::uint64_t a) const {
  return mod_inv(a, q_);
}

std::uint64_t SchnorrGroup::hash_to_scalar(const Bytes& data) const {
  const Digest d = Sha256::hash(data);
  std::uint64_t v = digest_prefix_u64(d) % q_;
  return v == 0 ? 1 : v;
}

bool SchnorrGroup::is_element(std::uint64_t a) const {
  return a != 0 && a < p_ && mod_pow(a, q_, p_) == 1;
}

const SchnorrGroup& default_group() {
  static const SchnorrGroup group = SchnorrGroup::derive(0x76636cULL /*vcl*/);
  return group;
}

}  // namespace vcl::crypto
