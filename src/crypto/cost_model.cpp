#include "crypto/cost_model.h"

#include <iterator>

namespace vcl::crypto {
namespace {

// Simulated seconds per op on an OBU-class ARM Cortex-A, in `Op` order.
constexpr SimTime kOpCost[] = {
    5 * kMicroseconds,    // kHash
    8 * kMicroseconds,    // kHmac
    1.2 * kMilliseconds,  // kSign
    2.0 * kMilliseconds,  // kVerify
    1.6 * kMilliseconds,  // kKemEncap
    1.4 * kMilliseconds,  // kKemDecap
    6.0 * kMilliseconds,  // kGroupSign
    9.0 * kMilliseconds,  // kGroupVerify
    2.2 * kMilliseconds,  // kAbeEncrypt, per policy leaf
    1.8 * kMilliseconds,  // kAbeDecrypt, per satisfied leaf
};
static_assert(std::size(kOpCost) ==
              static_cast<std::size_t>(Op::kAbeDecrypt) + 1);

}  // namespace

OpCounts& OpCounts::operator+=(const OpCounts& o) {
  hash += o.hash;
  hmac += o.hmac;
  sign += o.sign;
  verify += o.verify;
  kem_encap += o.kem_encap;
  kem_decap += o.kem_decap;
  group_sign += o.group_sign;
  group_verify += o.group_verify;
  abe_encrypt_leaves += o.abe_encrypt_leaves;
  abe_decrypt_leaves += o.abe_decrypt_leaves;
  return *this;
}

SimTime cost(Op op) { return kOpCost[static_cast<std::size_t>(op)]; }

SimTime total(const OpCounts& c) {
  return cost(Op::kHash) * static_cast<double>(c.hash) +
         cost(Op::kHmac) * static_cast<double>(c.hmac) +
         cost(Op::kSign) * static_cast<double>(c.sign) +
         cost(Op::kVerify) * static_cast<double>(c.verify) +
         cost(Op::kKemEncap) * static_cast<double>(c.kem_encap) +
         cost(Op::kKemDecap) * static_cast<double>(c.kem_decap) +
         cost(Op::kGroupSign) * static_cast<double>(c.group_sign) +
         cost(Op::kGroupVerify) * static_cast<double>(c.group_verify) +
         cost(Op::kAbeEncrypt) * static_cast<double>(c.abe_encrypt_leaves) +
         cost(Op::kAbeDecrypt) * static_cast<double>(c.abe_decrypt_leaves);
}

}  // namespace vcl::crypto
