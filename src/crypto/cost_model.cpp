#include "crypto/cost_model.h"

namespace vcl::crypto {

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

SimTime CostModel::cost(Op op) const {
  switch (op) {
    case Op::kHash: return hash_s;
    case Op::kHmac: return hmac_s;
    case Op::kSign: return sign_s;
    case Op::kVerify: return verify_s;
    case Op::kKemEncap: return kem_encap_s;
    case Op::kKemDecap: return kem_decap_s;
    case Op::kGroupSign: return group_sign_s;
    case Op::kGroupVerify: return group_verify_s;
    case Op::kAbeEncrypt: return abe_leaf_encrypt_s;
    case Op::kAbeDecrypt: return abe_leaf_decrypt_s;
  }
  return 0.0;
}

SimTime CostModel::total(const OpCounts& c) const {
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
