#include "auth/authority.h"

namespace vcl::auth {
namespace {

constexpr std::size_t kOpeningThreshold = 2;    // shares needed to open
constexpr std::size_t kOpeningAuthorities = 3;  // escrow shares issued

}  // namespace

crypto::Bytes cert_body(std::uint64_t pseudo_id, std::uint64_t pub) {
  crypto::Bytes b;
  crypto::append_u64(b, pseudo_id);
  crypto::append_u64(b, pub);
  return b;
}

TrustedAuthority::TrustedAuthority(std::uint64_t seed)
    : group_(crypto::default_group()),
      drbg_(seed ^ 0x5441ULL /* "TA" */),
      schnorr_(group_),
      keypair_(schnorr_.keygen(drbg_)) {
  escrow_secret_ = drbg_.next_scalar(group_.q());
  const crypto::Shamir shamir(group_.q());
  escrow_shares_ =
      shamir.split(escrow_secret_, kOpeningThreshold, kOpeningAuthorities,
                   drbg_);
}

void TrustedAuthority::register_vehicle(VehicleId v) {
  registered_[v.value()] = true;
}

bool TrustedAuthority::is_registered(VehicleId v) const {
  auto it = registered_.find(v.value());
  return it != registered_.end() && it->second;
}

crypto::SchnorrSignature TrustedAuthority::certify(std::uint64_t pseudo_id,
                                                   std::uint64_t pub) {
  return schnorr_.sign(keypair_.secret, cert_body(pseudo_id, pub), drbg_);
}

bool TrustedAuthority::check_cert(const PseudonymCert& cert) const {
  return schnorr_.verify(keypair_.pub, cert_body(cert.pseudo_id, cert.pub),
                         cert.ta_sig);
}

std::vector<PseudonymCredential> TrustedAuthority::issue_pseudonyms(
    VehicleId v, std::size_t n) {
  std::vector<PseudonymCredential> out;
  if (!is_registered(v)) return out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PseudonymCredential cred;
    cred.secret = drbg_.next_scalar(group_.q());
    cred.cert.pub = group_.pow_g(cred.secret);
    cred.cert.pseudo_id = next_pseudo_id_++;
    cred.cert.ta_sig = certify(cred.cert.pseudo_id, cred.cert.pub);
    escrow_map_[cred.cert.pseudo_id] = v;
    issued_[v.value()].push_back(cred.cert.pseudo_id);
    out.push_back(cred);
  }
  return out;
}

void TrustedAuthority::revoke_vehicle(VehicleId v) {
  auto it = issued_.find(v.value());
  if (it == issued_.end()) return;
  for (const std::uint64_t pid : it->second) crl_.revoke(pid);
  registered_[v.value()] = false;
}

crypto::Share TrustedAuthority::escrow_share(std::size_t i) const {
  return escrow_shares_.at(i);
}

std::optional<VehicleId> TrustedAuthority::open(
    std::uint64_t pseudo_id, const std::vector<crypto::Share>& shares) const {
  if (shares.size() < kOpeningThreshold) return std::nullopt;
  const crypto::Shamir shamir(group_.q());
  if (shamir.reconstruct(shares) != escrow_secret_) return std::nullopt;
  auto it = escrow_map_.find(pseudo_id);
  if (it == escrow_map_.end()) return std::nullopt;
  return it->second;
}

}  // namespace vcl::auth
