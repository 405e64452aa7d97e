// AdmissionControl: revocation-aware membership defense (paper §IV).
//
// The cloud's membership is built from radio-range beacons, which is
// exactly the surface the §IV threat model attacks: fabricated identities
// join while real holders are dark (Sybil), revoked identities keep their
// tasks while the fresh CRL crawls from RSU to RSU (revocation race), and
// captured joins/acks are re-injected past their freshness window
// (replay). This class is the per-cloud defense the InvariantOracle's auth
// invariants check:
//
//  * revocation-aware admission/eviction — membership refresh consults the
//    RSU-side auth::Crl view (Bloom fast path, exact timing map behind
//    it); a revoked identity is rejected at arrival and evicted at the
//    first refresh after the CRL becomes visible, with its held work
//    re-queued, not lost;
//  * freshness window — replayed joins/acks run through the REAL
//    attack::FreshnessChecker (timestamp || nonce envelope): stale
//    timestamps and remembered nonces die at the door;
//  * quarantine-on-suspicion — a fabricated identity that cannot be
//    verified (the channel cannot reach the authority during a blackout,
//    and the id has no traffic presence at all) is parked in a quarantine
//    pen instead of dispatched onto: capacity degrades gracefully by the
//    quarantined count, membership stays clean.
//
// `config.defend == false` runs the same storms with the door wide open —
// claims become members, revocations evict nobody, replays are never
// checked — the vulnerable baseline the E24 bench quantifies. All
// bookkeeping (deliveries, fabricated registry, stats) still records, so
// pollution is measurable either way.
//
// Inertness contract: the cloud holds a nullable `AdmissionControl*`; with
// none set every hook is one branch and runs are byte-identical to a
// pre-adversary build. Nothing here touches an RNG stream.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "attack/replay.h"
#include "auth/crl.h"
#include "obs/flight_recorder.h"
#include "util/ids.h"
#include "util/time.h"

namespace vcl::vcloud {

struct AdmissionConfig {
  // Defense master switch: false = admission wide open (the E24 vulnerable
  // baseline). Bookkeeping still records so pollution stays measurable.
  bool defend = true;
  // Replayed joins/acks whose embedded timestamp is MORE than this many
  // seconds old are rejected (age exactly equal to the window is accepted —
  // attack::FreshnessChecker's boundary is strict staleness).
  SimTime freshness_window = 2.0;
};

struct AdmissionStats {
  std::size_t sybil_claims = 0;       // fabricated join claims presented
  std::size_t sybil_admitted = 0;     // admitted with the defense off
  std::size_t sybil_quarantined = 0;  // parked in the quarantine pen
  std::size_t replays_seen = 0;       // replayed messages presented
  std::size_t replays_rejected = 0;   // killed by the freshness window
  std::size_t replays_accepted = 0;   // passed (defense off, or fresh)
  std::size_t revocations = 0;        // authority-side revokes observed
  std::size_t crl_deliveries = 0;     // fresh CRLs reaching this cloud's RSUs
  std::size_t revoked_evictions = 0;  // members evicted as revoked
  std::size_t arrivals_rejected = 0;  // membership arrivals refused
};

class AdmissionControl {
 public:
  // Throws std::invalid_argument("AdmissionConfig: ...") when a defended
  // config has a non-positive freshness_window.
  explicit AdmissionControl(AdmissionConfig config);

  // Always-on forensics: admission/eviction decisions land on the
  // kAuth/kAttack flight categories. Null = one branch per decision.
  void set_flight(obs::FlightRecorder* flight) { flight_ = flight; }

  [[nodiscard]] const AdmissionStats& stats() const { return stats_; }
  // The RSU-side CRL view refresh consults (Bloom fast path).
  [[nodiscard]] const auth::Crl& crl() const { return crl_; }

  // --- identity bookkeeping (adversary driver side) --------------------------
  // Marks an id as fabricated (a sybil credential with no real vehicle
  // behind it). The oracle's sybil-admission invariant counts members
  // against this registry.
  void note_fabricated(VehicleId v) { fabricated_.insert(v.value()); }
  [[nodiscard]] bool is_fabricated(VehicleId v) const {
    return fabricated_.count(v.value()) != 0;
  }
  // Authority-side revoke observed (stats + flight only: RSUs know nothing
  // until deliver_crl — that gap IS the §IV race).
  void note_revoked(VehicleId v, SimTime now);
  // The fresh CRL reaches this cloud's RSUs at `visible_at`; EVERY RSU
  // holds it by `horizon_at`. Past the horizon a surviving member is a
  // safety violation; inside it the race is legal.
  void deliver_crl(VehicleId v, SimTime visible_at, SimTime horizon_at,
                   SimTime now);
  // True once some RSU of this cloud holds the revocation (eviction and
  // arrival filtering act from here).
  [[nodiscard]] bool revoked_visible(VehicleId v, SimTime now) const;
  // Absolute time by which EVERY RSU holds it; +inf when undelivered. The
  // oracle enforces revoked-membership only past this.
  [[nodiscard]] SimTime revocation_horizon(VehicleId v) const;

  // --- cloud-side decisions --------------------------------------------------
  // Membership-path arrival filter: false = refuse (revoked and visible).
  [[nodiscard]] bool allow_arrival(VehicleId v, SimTime now);
  // Revocation eviction sweep predicate, one call per member per refresh.
  [[nodiscard]] bool should_evict(VehicleId v, SimTime now) const {
    return config_.defend && revoked_visible(v, now);
  }
  void note_evicted(VehicleId v, SimTime now);

  enum class ClaimOutcome { kAdmitted, kQuarantined, kRejected };
  // A join claim arriving OUTSIDE the beacon membership path (fabricated
  // sybil identity, or a replayed join that survived the freshness check).
  // Only kAdmitted becomes a member; kQuarantined ids are tracked here and
  // never dispatched onto — graceful degradation, not corruption.
  ClaimOutcome offer_claim(VehicleId v, bool fabricated, SimTime now);

  // Freshness gate for a replayed message stamped (original_ts, nonce).
  // Runs the envelope through the real attack::FreshnessChecker when
  // defending; with the defense off everything passes (and is counted).
  [[nodiscard]] bool accept_replay(SimTime original_ts, std::uint64_t nonce,
                                   SimTime now);

  // --- oracle / census introspection -----------------------------------------
  // True when `v` became a member through offer_claim (the membership
  // census accepts such workers even without a traffic presence).
  [[nodiscard]] bool was_admitted_claim(VehicleId v) const {
    return admitted_claims_.count(v.value()) != 0;
  }
  [[nodiscard]] std::size_t quarantined_count() const {
    return quarantine_.size();
  }
  [[nodiscard]] bool is_quarantined(VehicleId v) const {
    return quarantine_.count(v.value()) != 0;
  }

 private:
  struct Delivery {
    SimTime visible_at = 0.0;
    SimTime horizon_at = 0.0;
  };

  AdmissionConfig config_;
  AdmissionStats stats_;
  auth::Crl crl_;
  attack::FreshnessChecker freshness_;
  std::unordered_set<std::uint64_t> fabricated_;
  std::unordered_map<std::uint64_t, Delivery> deliveries_;
  std::unordered_set<std::uint64_t> admitted_claims_;
  std::unordered_set<std::uint64_t> quarantine_;
  obs::FlightRecorder* flight_ = nullptr;
};

}  // namespace vcl::vcloud
