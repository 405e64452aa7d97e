#include "auth/two_factor.h"

namespace vcl::auth {
namespace {

constexpr SimTime kUnlockValidity = 300.0;  // biometric freshness window

crypto::Digest bind_driver(const crypto::Digest& biometric_hash,
                           const crypto::Bytes& payload) {
  crypto::Sha256 h;
  h.update(biometric_hash.data(), biometric_hash.size());
  h.update(payload);
  return h.finalize();
}

crypto::Digest mac_message(const crypto::Bytes& system_key,
                           const crypto::Bytes& payload,
                           const crypto::Digest& binding) {
  crypto::Bytes body = payload;
  body.insert(body.end(), binding.begin(), binding.end());
  return crypto::hmac_sha256(system_key, body);
}

}  // namespace

TwoFactorDevice::TwoFactorDevice(crypto::Bytes system_key)
    : system_key_(std::move(system_key)) {}

void TwoFactorDevice::enroll_driver(std::uint64_t driver_id,
                                    const crypto::Digest& biometric_hash) {
  drivers_[driver_id] = biometric_hash;
}

std::optional<std::uint64_t> TwoFactorDevice::unlock(
    const crypto::Digest& biometric_sample, SimTime now) {
  for (const auto& [driver, enrolled] : drivers_) {
    if (crypto::digest_equal(enrolled, biometric_sample)) {
      unlocked_driver_ = driver;
      unlocked_at_ = now;
      return driver;
    }
  }
  return std::nullopt;
}

bool TwoFactorDevice::is_unlocked(SimTime now) const {
  return unlocked_driver_.has_value() &&
         now - unlocked_at_ <= kUnlockValidity;
}

std::optional<TwoFactorMessage> TwoFactorDevice::sign(
    const crypto::Bytes& payload, SimTime now, crypto::OpCounts& ops) {
  if (!is_unlocked(now)) return std::nullopt;
  TwoFactorMessage msg;
  msg.payload = payload;
  msg.driver_binding = bind_driver(drivers_.at(*unlocked_driver_), payload);
  msg.mac = mac_message(system_key_, payload, msg.driver_binding);
  ops.hash += 1;
  ops.hmac += 1;
  return msg;
}

bool TwoFactorDevice::verify(const crypto::Bytes& system_key,
                             const TwoFactorMessage& msg,
                             crypto::OpCounts& ops) {
  ops.hmac += 1;
  return crypto::digest_equal(
      msg.mac, mac_message(system_key, msg.payload, msg.driver_binding));
}

}  // namespace vcl::auth
