#include "net/channel.h"

#include <algorithm>
#include <cmath>

namespace vcl::net {
namespace {

constexpr double kPathLossExponent = 2.7;
constexpr double kShadowingSigma = 3.0;  // dB
constexpr double kDataRateBps = 6e6;     // 802.11p nominal 6 Mbit/s
constexpr SimTime kSlotTime = 50 * kMicroseconds;
constexpr double kContentionPerNeighbor = 0.004;  // loss per local transmitter
constexpr double kBaseLoss = 0.02;  // irreducible packet error rate

}  // namespace

std::uint64_t Channel::add_blackout(BlackoutRegion region) {
  const std::uint64_t token = next_blackout_token_++;
  blackouts_.emplace_back(token, region);
  return token;
}

void Channel::remove_blackout(std::uint64_t token) {
  std::erase_if(blackouts_,
                [token](const auto& entry) { return entry.first == token; });
}

bool Channel::blacked_out(geo::Vec2 pos) const {
  for (const auto& [token, region] : blackouts_) {
    if (geo::distance(pos, region.center) <= region.radius) return true;
  }
  return false;
}

double Channel::reception_probability(geo::Vec2 from, geo::Vec2 to,
                                      std::size_t local_density) const {
  const double d = geo::distance(from, to);
  if (d > kMaxRange) return 0.0;
  if (!blackouts_.empty() && (blacked_out(from) || blacked_out(to))) {
    return 0.0;
  }
  double p = 1.0 - kBaseLoss;
  if (d > kReferenceRange) {
    // Log-distance fade: success decays with (d/ref)^(-alpha), smoothed so
    // p -> ~0 at the cutoff. Shadowing sigma widens the transition band.
    const double ratio =
        (d - kReferenceRange) / (kMaxRange - kReferenceRange);
    const double fade = std::pow(1.0 - ratio, kPathLossExponent / 2.0);
    p *= std::clamp(fade + 0.02 * kShadowingSigma * (1.0 - ratio), 0.0, 1.0);
  }
  // CSMA contention: every concurrent transmitter in range erodes success.
  p *= std::max(0.0, 1.0 - kContentionPerNeighbor *
                               static_cast<double>(local_density));
  return std::clamp(p, 0.0, 1.0);
}

SimTime Channel::hop_delay(std::size_t size_bytes,
                           std::size_t local_density) const {
  const SimTime tx_time = static_cast<double>(size_bytes) * 8.0 / kDataRateBps;
  // Expected backoff grows with contenders (simplified binary backoff).
  const SimTime backoff =
      kSlotTime * (1.0 + static_cast<double>(local_density) * 0.5);
  return tx_time + backoff;
}

ReceptionResult Channel::attempt(geo::Vec2 from, geo::Vec2 to,
                                 std::size_t size_bytes,
                                 std::size_t local_density, Rng& rng) const {
  ReceptionResult r;
  ++counters_.attempts;
  if (!blackouts_.empty() && (blacked_out(from) || blacked_out(to))) {
    ++counters_.blackout_drops;
  }
  const double p = reception_probability(from, to, local_density);
  if (!rng.bernoulli(p)) return r;
  r.received = true;
  ++counters_.delivered;
  // Jitter the deterministic delay by up to one extra backoff round.
  r.delay = hop_delay(size_bytes, local_density) *
            rng.uniform(1.0, 1.5);
  return r;
}

}  // namespace vcl::net
