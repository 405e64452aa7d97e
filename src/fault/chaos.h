// ChaosPlanner: seeded generator of *correlated* fault storms (paper §III).
//
// The plain FaultPlanConfig draws each fault class as an independent
// Poisson process — adequate for intensity sweeps, but real dependability
// incidents are compound: a broker dies *while* a radio blackout already
// hides the heartbeats, several workers crash within one second, the same
// RSU flaps up and down faster than anyone re-anchors to it. The planner
// layers five storm shapes on top of the independent background (the three
// §IV attack shapes are described on StormConfig below). Every shape is
// fixed — the named constants in chaos.cpp — and StormConfig sets only how
// often each arrives:
//
//  * burst   — a cluster of vehicle crashes packed into a short window
//              (cascaded worker churn; stresses requeue + detector sweep);
//  * cascade — a radio blackout with one or more broker kills fired INSIDE
//              the blackout window (the §III.A worst case: the cloud loses
//              its state holder exactly when it cannot hear anything);
//  * flap    — the same RSU taken down and repaired repeatedly (tests that
//              repeated crash-recover of one victim never corrupts
//              bookkeeping);
//  * storage — a radio blackout with a burst of crashes aimed at ONE storage
//              object's replica holders fired inside the blackout window
//              (the storage worst case: a write quorum of an object dies
//              while lease renewals are already being eaten by the channel).
//              The victims are resolved at fire time through the injector's
//              storage resolver via FaultEvent::storage_tag.
//  * dag     — a burst of crashes that each re-target ONE DAG run's current
//              critical-path holder at fire time (FaultEvent::dag_tag): the
//              storm follows the makespan-determining node as the scheduler
//              re-places it, the worst case for decomposition scheduling.
//
// The output is a plain deterministic FaultPlan — same (config, seed) pair,
// same schedule — so a storm run is exactly replayable, diffable and
// shrinkable like any other plan. write/parse_fault_plan_jsonl serialize a
// plan (plus replay context) to the repo's JSONL house format so any
// schedule can be re-run from a file (tools/vcl_chaos --repro).
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"

namespace vcl::fault {

// Storm intensities over the base config's [0, horizon]. All rates default
// to 0 = that storm shape off; a default StormConfig adds nothing. Each
// shape is fixed (the named constants in chaos.cpp); only how often storms
// arrive varies, plus the replay flood's window and age.
struct StormConfig {
  // Burst crashes: Poisson storm arrivals; each storm packs 4 (+/- Poisson
  // scatter, at least 1) vehicle crashes into [t, t + 2 s].
  double burst_rate = 0.0;  // storms per second

  // Broker-kill-during-blackout cascades: a 10 s blackout with 2 broker
  // crashes spaced inside its window. Centers draw from the base config's
  // blackout box.
  double cascade_rate = 0.0;

  // Flapping RSU: 4 outage/repair cycles of ONE explicit RSU, one cycle
  // every 3 s, each outage lasting 1 s.
  double flap_rate = 0.0;

  // Storage-targeted storm: an 8 s blackout plus 2 vehicle crashes spaced
  // inside its window, both carrying the same storage_tag so the injector
  // burst-kills the live holders of one object while its leases cannot
  // renew. Centers draw from the base box.
  double storage_rate = 0.0;

  // DAG-targeted storm: 2 vehicle crashes spaced over [t, t + 6 s), both
  // carrying the same dag_tag so each crash re-resolves (at fire time)
  // against the SAME DAG run's current critical-path holder — the storm
  // chases the run's heaviest pending node from host to host as the
  // scheduler re-places it.
  double dag_rate = 0.0;

  // Sybil burst inside a radio blackout (paper §IV.B): an 8 s blackout plus
  // 3 fabricated-identity joins spaced inside its window — the fabricated
  // hosts present themselves exactly while the real holders are dark and
  // verification traffic is being eaten. Centers draw from the base box.
  // The blackout and its joins share one shrink group.
  double sybil_rate = 0.0;

  // CRL-propagation race (paper §IV.A): the authority revokes an identity
  // that may hold tasks/leases at storm time; the fresh CRL reaches the
  // RSUs 2 s later, and the LAST RSU 4 s after that. Inside the horizon
  // the race is legal; past it a revoked member is a safety violation. The
  // revoke and its delivery share one shrink group.
  double revoke_rate = 0.0;

  // Replay flood (paper §IV.C): 3 captured join/ack messages re-injected
  // over [t, t + replay_window), each `replay_age` seconds past its
  // original timestamp — stale by construction, so a working freshness
  // window rejects every one. The flood shares one shrink group.
  double replay_rate = 0.0;
  SimTime replay_window = 4.0;
  SimTime replay_age = 5.0;

  [[nodiscard]] bool any() const {
    return burst_rate > 0.0 || cascade_rate > 0.0 || flap_rate > 0.0 ||
           storage_rate > 0.0 || dag_rate > 0.0 || sybil_rate > 0.0 ||
           revoke_rate > 0.0 || replay_rate > 0.0;
  }
};

struct ChaosConfig {
  FaultPlanConfig base;  // independent Poisson background (may be all-zero)
  StormConfig storms;
};

// Like validate(FaultPlanConfig): empty string when sane, else the problem:
// a negative rate, a non-positive replay window or age while replays are
// on, or — when a cascade, storage or sybil storm is on — an unusable
// blackout box in `base`, even when base.blackout_rate is zero (those
// storms' blackouts draw their centers from it).
[[nodiscard]] std::string validate(const ChaosConfig& config);

class ChaosPlanner {
 public:
  // Throws std::invalid_argument when validate(config) reports a problem.
  explicit ChaosPlanner(ChaosConfig config);

  // Deterministic: the plan is a pure function of (config, seed). The base
  // background and each storm shape draw from independent forked streams,
  // so enabling one storm never reshuffles another.
  [[nodiscard]] FaultPlan plan(std::uint64_t seed) const;

  [[nodiscard]] const ChaosConfig& config() const { return config_; }

 private:
  ChaosConfig config_;
};

// ---- plan (de)serialization -------------------------------------------------
//
// JSONL, one JSON object per line: a leading
//   {"meta":"vcl-fault-plan-v1","seed":S,"events":N,...}
// record carrying replay context (extra numeric fields from `meta` are
// preserved), then one event per line:
//   {"kind":"vehicle_crash","at":12.5,...}
// Invalid ids (unset victim / RSU) are omitted, not written as sentinels.

// Replay context carried in the meta record. `extra` keys are written as
// additional numeric meta fields and round-trip through parse (the chaos
// harness stores vehicles/duration/intensity here).
struct FaultPlanMeta {
  std::uint64_t seed = 0;
  std::vector<std::pair<std::string, double>> extra;
  // Line of the meta record in the parsed file (0 = not parsed), so callers
  // that validate `extra` can point their errors at it.
  std::size_t line = 0;

  // Convenience lookup; `fallback` when the key is absent.
  [[nodiscard]] double get(const std::string& key, double fallback) const;
  void set(const std::string& key, double value);
};

void write_fault_plan_jsonl(const FaultPlan& plan, const FaultPlanMeta& meta,
                            std::ostream& os);
// Returns false (with `error` set) on a malformed document.
bool parse_fault_plan_jsonl(std::istream& is, FaultPlan& plan,
                            FaultPlanMeta& meta, std::string* error = nullptr);

// ---- shrinking --------------------------------------------------------------

// Greedy delta-debugging (ddmin-style chunk removal): repeatedly tries to
// drop contiguous chunks — halves first, then ever finer down to single
// events — keeping any removal under which `still_fails` stays true. The
// result is 1-minimal per chunk granularity: removing any single remaining
// event makes the failure vanish. `still_fails(plan)` must be true for the
// input plan; the predicate is called O(n log n) times, so keep episode
// runs short. Event order is preserved.
//
// Events sharing a non-zero FaultEvent::group shrink as ONE atomic unit:
// a kRevokeIdentity is meaningless without its paired kCrlDeliver (and a
// sybil burst without its blackout), so the chunking never separates a
// causal pair — it keeps or drops the whole group. Ungrouped plans shrink
// exactly as before.
[[nodiscard]] FaultPlan shrink_fault_plan(
    FaultPlan plan, const std::function<bool(const FaultPlan&)>& still_fails);

}  // namespace vcl::fault
