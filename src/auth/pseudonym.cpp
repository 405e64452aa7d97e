#include "auth/pseudonym.h"

namespace vcl::auth {

PseudonymAuth::PseudonymAuth(TrustedAuthority& ta, VehicleId v,
                             std::size_t pool_size, SimTime rotation_period)
    : ta_(ta),
      drbg_(0x505345ULL ^ v.value() /* per-vehicle stream */),
      pool_(ta.issue_pseudonyms(v, pool_size)),
      rotation_period_(rotation_period) {}

std::uint64_t PseudonymAuth::current_pseudo_id() const {
  return pool_.empty() ? 0 : pool_[current_].cert.pseudo_id;
}

std::optional<AuthTag> PseudonymAuth::sign(const crypto::Bytes& payload,
                                           SimTime now,
                                           crypto::OpCounts& ops) {
  if (pool_.empty()) return std::nullopt;
  if (now - last_rotation_ >= rotation_period_ && current_ + 1 < pool_.size()) {
    ++current_;
    last_rotation_ = now;
  }
  const PseudonymCredential& cred = pool_[current_];
  const crypto::Schnorr schnorr(ta_.group());
  AuthTag tag;
  tag.credential_id = cred.cert.pseudo_id;
  tag.ephemeral_pub = cred.cert.pub;
  tag.cert_sig = cred.cert.ta_sig;
  tag.msg_sig = schnorr.sign(cred.secret, payload, drbg_);
  // Wire: pseudo id (8) + pub (33-equivalent) + 2 signatures (64 each).
  tag.wire_bytes = 8 + 33 + 2 * crypto::SchnorrSignature::kWireSize;
  ops.sign += 1;
  return tag;
}

VerifyOutcome PseudonymAuth::verify(const TrustedAuthority& ta,
                                    const crypto::Bytes& payload,
                                    const AuthTag& tag) {
  VerifyOutcome out;
  // 1. TA certificate on the pseudonym key.
  out.ops.verify += 1;
  const PseudonymCert cert{tag.credential_id, tag.ephemeral_pub, tag.cert_sig};
  if (!ta.check_cert(cert)) {
    out.reason = "bad certificate";
    return out;
  }
  // 2. CRL lookup (hash-cost accounted; exact probes only on Bloom hits).
  out.ops.hash += 1;
  if (ta.crl().is_revoked(tag.credential_id)) {
    out.reason = "revoked";
    return out;
  }
  // 3. Message signature under the pseudonym key.
  out.ops.verify += 1;
  const crypto::Schnorr schnorr(ta.group());
  if (!schnorr.verify(tag.ephemeral_pub, payload, tag.msg_sig)) {
    out.reason = "bad signature";
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace vcl::auth
