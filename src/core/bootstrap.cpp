#include "core/bootstrap.h"

namespace vcl::core {
namespace {

constexpr std::size_t kPseudonymPool = 8;  // pseudonyms issued per join
// A relay path adds hops; modeled as a multiplier on the RSU RTT.
constexpr double kRelayPenalty = 2.0;
constexpr SimTime kStepPeriod = 1.0;  // attach()'s state-machine period

}  // namespace

BootstrapProtocol::BootstrapProtocol(net::Network& net,
                                     auth::TrustedAuthority& ta)
    : net_(net), ta_(ta), drbg_(std::uint64_t{0xB007}) {}

void BootstrapProtocol::attach() {
  net_.simulator().schedule_every(kStepPeriod, [this] { step(); }, -1.0,
                                  "core.bootstrap");
}

JoinState BootstrapProtocol::state(VehicleId v) const {
  auto it = records_.find(v.value());
  return it == records_.end() ? JoinState::kUnregistered : it->second.state;
}

std::size_t BootstrapProtocol::joined_count() const {
  std::size_t n = 0;
  for (const auto& [vid, r] : records_) {
    n += r.state == JoinState::kJoined ? 1 : 0;
  }
  return n;
}

SimTime BootstrapProtocol::registration_latency(VehicleId v,
                                                bool via_rsu) const {
  // Round trip (request + response) at the channel's hop delay, plus the
  // TA-side issuance: one certificate signature per pseudonym in the pool.
  const mobility::VehicleState* s = net_.traffic().find(v);
  const std::size_t density =
      s != nullptr ? net_.local_density(s->pos) : 0;
  SimTime rtt = 2.0 * net_.channel().hop_delay(512, density);
  if (!via_rsu) rtt *= kRelayPenalty;
  const SimTime issuance =
      crypto::cost(crypto::Op::kSign) * static_cast<double>(kPseudonymPool);
  return rtt + issuance;
}

void BootstrapProtocol::complete_join(VehicleId v, bool via_rsu) {
  auto it = records_.find(v.value());
  if (it == records_.end()) return;
  JoinRecord& rec = it->second;
  if (rec.state != JoinState::kRegistering) return;
  if (net_.traffic().find(v) == nullptr) {
    records_.erase(it);  // left before the handshake finished
    return;
  }
  rec.state = JoinState::kJoined;
  rec.joined_at = net_.simulator().now();
  rec.via_rsu = via_rsu;
  const double latency = rec.joined_at - rec.started;
  join_latency_.add(latency);
  join_latencies_.push_back(latency);
  (via_rsu ? via_rsu_ : via_relay_) += 1;

  // Issue the credential pool and a DH key for session establishment.
  ta_.register_vehicle(v);
  signers_[v.value()] = std::make_unique<auth::PseudonymAuth>(
      ta_, v, kPseudonymPool);
  const crypto::Schnorr schnorr(ta_.group());
  dh_keys_[v.value()] = schnorr.keygen(drbg_);
}

void BootstrapProtocol::step() {
  const SimTime now = net_.simulator().now();
  for (const auto& [vid, vehicle] : net_.traffic().vehicles()) {
    const VehicleId v = vehicle.id;
    JoinRecord& rec = records_[v.value()];
    switch (rec.state) {
      case JoinState::kUnregistered: {
        if (rec.started == 0.0) rec.started = now;
        const bool rsu = net_.reachable_rsu(v) != nullptr;
        bool relay = false;
        if (!rsu) {
          for (const net::NeighborEntry& n : net_.neighbors(v)) {
            if (joined(n.id)) {
              relay = true;
              break;
            }
          }
        }
        if (!rsu && !relay) break;  // keep listening
        rec.state = JoinState::kRegistering;
        const SimTime latency = registration_latency(v, rsu);
        net_.simulator().schedule_after(
            latency, [this, v, rsu] { complete_join(v, rsu); });
        break;
      }
      case JoinState::kRegistering:
      case JoinState::kJoined:
        break;
    }
  }
  // Drop records of departed vehicles (joined stats already accumulated).
  for (auto it = records_.begin(); it != records_.end();) {
    if (net_.traffic().find(VehicleId{it->first}) == nullptr) {
      signers_.erase(it->first);
      dh_keys_.erase(it->first);
      it = records_.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<crypto::Digest> BootstrapProtocol::session_key(
    VehicleId a, VehicleId b) const {
  auto ka = dh_keys_.find(a.value());
  auto kb = dh_keys_.find(b.value());
  if (ka == dh_keys_.end() || kb == dh_keys_.end()) return std::nullopt;
  // Shared secret g^{xy}, computed from a's secret and b's public key (the
  // same value either way — that is the point of DH).
  const auto& group = ta_.group();
  const std::uint64_t shared =
      group.pow(kb->second.pub, ka->second.secret);
  crypto::Bytes bytes;
  crypto::append_u64(bytes, shared);
  return crypto::Sha256::hash(bytes);
}

auth::PseudonymAuth* BootstrapProtocol::signer(VehicleId v) {
  auto it = signers_.find(v.value());
  return it == signers_.end() ? nullptr : it->second.get();
}

}  // namespace vcl::core
