// Two-factor lightweight authentication (after Wang et al. [38], 2FLIP):
// something the VEHICLE has (a tamper-proof device holding the system MAC
// key) plus something the DRIVER is (a biometric sample hashed on board).
//
// The TPD only MACs messages while a fresh biometric unlock is present, so
// a stolen OBU cannot speak, and one vehicle cleanly serves multiple
// drivers (each unlocks with their own enrolled biometric). Verification is
// one HMAC under the system key — DoS-resilient cheapness is the scheme's
// selling point. Per 2FLIP, non-repudiation binds the driver hash into the
// MAC'd payload so the authority can attribute messages to the driver, not
// just the vehicle.
#pragma once

#include <optional>
#include <unordered_map>

#include "crypto/cost_model.h"
#include "crypto/hmac.h"
#include "util/time.h"

namespace vcl::auth {

struct TwoFactorMessage {
  crypto::Bytes payload;
  crypto::Digest driver_binding{};  // H(driver biometric hash || payload)
  crypto::Digest mac{};             // HMAC(system_key, payload || binding)
};

class TwoFactorDevice {
 public:
  // `system_key` is the network-wide MAC key provisioned into every TPD.
  explicit TwoFactorDevice(crypto::Bytes system_key);

  // Enrolls a driver's biometric template (hash thereof) with the device.
  void enroll_driver(std::uint64_t driver_id,
                     const crypto::Digest& biometric_hash);

  // Presents a biometric sample: unlocks the device for the validity
  // window (300 s) when it matches an enrolled driver. Returns the driver
  // id.
  std::optional<std::uint64_t> unlock(const crypto::Digest& biometric_sample,
                                      SimTime now);
  void lock() { unlocked_driver_.reset(); }
  [[nodiscard]] bool is_unlocked(SimTime now) const;

  // Signs a payload; fails when locked or the unlock expired (the stolen-
  // OBU case). Ops: one hash + one HMAC.
  std::optional<TwoFactorMessage> sign(const crypto::Bytes& payload,
                                       SimTime now, crypto::OpCounts& ops);

  // Any device holding the system key verifies with one HMAC.
  static bool verify(const crypto::Bytes& system_key,
                     const TwoFactorMessage& msg, crypto::OpCounts& ops);

 private:
  crypto::Bytes system_key_;
  std::unordered_map<std::uint64_t, crypto::Digest> drivers_;
  std::optional<std::uint64_t> unlocked_driver_;
  SimTime unlocked_at_ = 0.0;
};

}  // namespace vcl::auth
