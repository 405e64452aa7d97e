#include "vcloud/admission.h"

#include <stdexcept>

namespace vcl::vcloud {

AdmissionControl::AdmissionControl(AdmissionConfig config)
    : config_(config), freshness_(config.freshness_window) {
  if (config_.defend && config_.freshness_window <= 0.0) {
    throw std::invalid_argument(
        "AdmissionConfig: freshness_window must be positive");
  }
}

void AdmissionControl::note_revoked(VehicleId v, SimTime now) {
  ++stats_.revocations;
  if (flight_ != nullptr) {
    flight_->record(now, obs::FlightCategory::kAuth, "auth.revoke", v.value());
  }
}

void AdmissionControl::deliver_crl(VehicleId v, SimTime visible_at,
                                   SimTime horizon_at, SimTime now) {
  crl_.revoke(v.value());
  deliveries_[v.value()] = Delivery{visible_at, horizon_at};
  ++stats_.crl_deliveries;
  if (flight_ != nullptr) {
    flight_->record(now, obs::FlightCategory::kAuth, "auth.crl.deliver",
                    v.value(), 0, horizon_at);
  }
}

bool AdmissionControl::revoked_visible(VehicleId v, SimTime now) const {
  // Bloom fast path first: the common "not revoked" answer never touches
  // the timing map.
  if (!crl_.is_revoked(v.value())) return false;
  const auto it = deliveries_.find(v.value());
  return it != deliveries_.end() && now >= it->second.visible_at;
}

SimTime AdmissionControl::revocation_horizon(VehicleId v) const {
  const auto it = deliveries_.find(v.value());
  return it == deliveries_.end() ? std::numeric_limits<double>::infinity()
                                 : it->second.horizon_at;
}

bool AdmissionControl::allow_arrival(VehicleId v, SimTime now) {
  if (!config_.defend) return true;
  if (!revoked_visible(v, now)) return true;
  ++stats_.arrivals_rejected;
  if (flight_ != nullptr) {
    flight_->record(now, obs::FlightCategory::kAuth, "auth.arrival.reject",
                    v.value());
  }
  return false;
}

void AdmissionControl::note_evicted(VehicleId v, SimTime now) {
  ++stats_.revoked_evictions;
  if (flight_ != nullptr) {
    flight_->record(now, obs::FlightCategory::kAuth, "auth.evict", v.value());
  }
}

AdmissionControl::ClaimOutcome AdmissionControl::offer_claim(VehicleId v,
                                                             bool fabricated,
                                                             SimTime now) {
  if (fabricated) ++stats_.sybil_claims;
  if (!config_.defend) {
    // Door wide open: the claim becomes a full member (the pollution the
    // E24 vulnerable baseline measures).
    admitted_claims_.insert(v.value());
    if (fabricated) ++stats_.sybil_admitted;
    if (flight_ != nullptr) {
      flight_->record(now, obs::FlightCategory::kAttack, "attack.sybil.admit",
                      v.value(), fabricated ? 1 : 0);
    }
    return ClaimOutcome::kAdmitted;
  }
  if (revoked_visible(v, now)) {
    if (flight_ != nullptr) {
      flight_->record(now, obs::FlightCategory::kAttack, "attack.claim.reject",
                      v.value());
    }
    return ClaimOutcome::kRejected;
  }
  if (fabricated) {
    // Verification policy: an unverifiable identity is never admitted but
    // quarantined — the pen costs capacity, never correctness.
    quarantine_.insert(v.value());
    ++stats_.sybil_quarantined;
    if (flight_ != nullptr) {
      flight_->record(now, obs::FlightCategory::kAttack,
                      "attack.sybil.quarantine", v.value());
    }
    return ClaimOutcome::kQuarantined;
  }
  // A genuine identity re-presenting itself (e.g. a fresh join that passed
  // the freshness gate): admit.
  admitted_claims_.insert(v.value());
  if (flight_ != nullptr) {
    flight_->record(now, obs::FlightCategory::kAttack, "attack.claim.admit",
                    v.value());
  }
  return ClaimOutcome::kAdmitted;
}

bool AdmissionControl::accept_replay(SimTime original_ts, std::uint64_t nonce,
                                     SimTime now) {
  ++stats_.replays_seen;
  if (!config_.defend) {
    ++stats_.replays_accepted;
    return true;
  }
  // Round-trip the real envelope: timestamp || nonce || (empty body), then
  // the checker's strict-staleness + remembered-nonce verdict.
  const crypto::Bytes payload =
      attack::make_fresh_payload(crypto::Bytes{}, original_ts, nonce);
  if (freshness_.accept(payload, now)) {
    ++stats_.replays_accepted;
    if (flight_ != nullptr) {
      flight_->record(now, obs::FlightCategory::kAttack,
                      "attack.replay.accept", nonce);
    }
    return true;
  }
  ++stats_.replays_rejected;
  if (flight_ != nullptr) {
    flight_->record(now, obs::FlightCategory::kAttack, "attack.replay.reject",
                    nonce, 0, now - original_ts);
  }
  return false;
}

}  // namespace vcl::vcloud
