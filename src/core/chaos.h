// Chaos episode harness (DESIGN.md §9): one seeded, self-contained
// adversarial run of the full system with the invariant oracle attached.
//
// An *episode* is a parking-lot stationary cloud (the bench_dependability
// fixture) in full mitigation mode — failure detector, ack/retry,
// checkpoints, speculation — serving a steady deadline-bearing task stream
// while a fault::ChaosPlanner schedule (independent Poisson background
// plus correlated storms) tears at it. The vcloud::InvariantOracle checks
// global safety at every refresh and terminal transition; the episode
// result pairs any violations with the exact FaultPlan that produced them,
// which is the piece the oracle itself cannot carry (vcloud does not
// depend on fault).
//
// Everything is a pure function of ChaosScenarioConfig: same config, same
// episode, byte for byte — which is what makes soak failures replayable
// (tools/vcl_chaos --repro) and fault plans shrinkable.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "fault/chaos.h"
#include "obs/incident.h"
#include "vcloud/cloud.h"
#include "vcloud/invariant_oracle.h"

namespace vcl::core {

struct ChaosScenarioConfig {
  std::uint64_t seed = 1;
  int vehicles = 40;
  SimTime duration = 120.0;  // load window; faults also stop here
  SimTime drain = 40.0;      // deadlines settle everything in flight
  // Scales every fault and storm rate together (1.0 = the defaults below).
  double intensity = 1.0;
  bool storms = true;            // correlated storms on top of the background
  SimTime submit_period = 0.5;   // one task per period during the load window
  // Runs the storage service (leases + quorum replication + repair) under
  // the same chaos: a handful of replicated objects served by a steady
  // client read/write mix, the storage invariants armed in the oracle, and
  // — when storms are on — the storage-targeted storm shape added to the
  // schedule.
  bool storage = false;
  // Runs the DAG decomposition scheduler under the same chaos: a steady
  // stream of generated task graphs (reliability-aware policy), the DAG
  // invariants armed in the oracle, and — when storms are on — the
  // critical-path-chasing storm shape added to the schedule.
  bool dag = false;
  // Runs the §IV adversary under the same chaos: attack storms (sybil
  // bursts inside blackouts, CRL-propagation races, replay floods) added to
  // the schedule, the revocation-aware admission/eviction defenses on the
  // broker path, and the auth invariants armed in the oracle.
  bool adversary = false;
  // Armed on the cloud right after start(); see SeededBugName::arm.
  vcloud::SeededBug seeded_bug = vcloud::SeededBug::kNone;
};

// The one name table for seeded bugs, in repro meta key order: each bug's
// `vcl_chaos --inject-bug` name, the meta key recording it (1 armed, 0 not),
// and the mode it implies with that mode's meta key, written just before
// the bug's (null for requeue, whose path runs in every episode).
struct SeededBugName {
  vcloud::SeededBug bug;
  const char* name;
  const char* meta_key;
  bool ChaosScenarioConfig::*mode;
  const char* mode_key;

  void arm(ChaosScenarioConfig& config) const {  // the bug and its mode
    config.seeded_bug = bug;
    if (mode != nullptr) config.*mode = true;
  }
};
inline constexpr SeededBugName kSeededBugs[] = {
    {vcloud::SeededBug::kCrashRequeue, "requeue", "inject_requeue_bug",
     nullptr, nullptr},
    {vcloud::SeededBug::kRepairReplace, "repair", "inject_repair_bug",
     &ChaosScenarioConfig::storage, "storage"},
    {vcloud::SeededBug::kFailedResubmit, "dag", "inject_dag_bug",
     &ChaosScenarioConfig::dag, "dag"},
    {vcloud::SeededBug::kRevokedRequeue, "revoked", "inject_revoked_bug",
     &ChaosScenarioConfig::adversary, "adversary"},
};

// The table row named `name`; null when no bug has that name.
constexpr const SeededBugName* find_seeded_bug(std::string_view name) {
  for (const SeededBugName& b : kSeededBugs) {
    if (name == b.name) return &b;
  }
  return nullptr;
}

// The fault/storm schedule an episode with this config faces. The blackout
// box is derived from the scenario's road bounding box.
[[nodiscard]] fault::ChaosConfig chaos_config_for(
    const ChaosScenarioConfig& config);

struct ChaosEpisode {
  std::uint64_t seed = 0;
  fault::FaultPlan plan;  // the schedule the episode actually ran
  std::vector<vcloud::InvariantViolation> violations;  // capped at kMaxStored
  std::size_t violation_count = 0;  // uncapped total
  std::size_t checks_run = 0;
  // Headline outcome numbers (full stats live in the trace export).
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t expired = 0;
  std::size_t crashes = 0;  // injected vehicle + broker crashes
  // Storage outcome (zero when ChaosScenarioConfig::storage is off).
  std::size_t storage_writes_acked = 0;
  std::size_t storage_reads_quorum = 0;
  std::size_t storage_reads_degraded = 0;
  std::size_t storage_repair_copies = 0;
  // DAG outcome (zero when ChaosScenarioConfig::dag is off).
  std::size_t dag_graphs_submitted = 0;
  std::size_t dag_graphs_completed = 0;
  std::size_t dag_graphs_failed = 0;
  std::size_t dag_nodes_succeeded = 0;
  std::size_t dag_backups = 0;
  // Adversary outcome (zero when ChaosScenarioConfig::adversary is off).
  std::size_t sybil_claims = 0;
  std::size_t sybil_quarantined = 0;
  std::size_t sybil_admitted = 0;
  std::size_t replays_seen = 0;
  std::size_t replays_rejected = 0;
  std::size_t revocations = 0;
  std::size_t revoked_evictions = 0;
  // Forensic snapshot captured at the instant of the FIRST violation
  // (DESIGN.md §12): flight-recorder tail, open fault windows, in-flight
  // spans, membership/task/replica/DAG state — everything vcl_incident
  // needs to render the causal timeline. Null when the episode was clean.
  // shared_ptr keeps ChaosEpisode cheaply copyable for the soak harness.
  std::shared_ptr<obs::IncidentBundle> incident;
  // Set when the episode was asked to export into a directory and some
  // file there (trace, metrics, violations, incident) could not be written.
  bool telemetry_failed = false;

  [[nodiscard]] bool ok() const { return violation_count == 0; }
};

// Generates the plan for `config` (ChaosPlanner, seed = config.seed) and
// runs it. Deterministic.
[[nodiscard]] ChaosEpisode run_chaos_episode(const ChaosScenarioConfig& config);

// Runs an explicit plan instead (shrink candidates, loaded repro files).
// When `telemetry_dir` is non-empty the episode records traces + metrics
// and exports them there (trace.jsonl is vcl_traceview-ready).
[[nodiscard]] ChaosEpisode run_chaos_episode(const ChaosScenarioConfig& config,
                                             fault::FaultPlan plan,
                                             const std::string& telemetry_dir =
                                                 {});

// Repro files: the fault-plan JSONL with the episode scenario knobs carried
// in the meta record, so one file re-creates the exact failing episode.
// Loading rejects, with the meta record's line number, a knob outside the
// range vcl_chaos accepts for it and a record that arms two seeded bugs.
void write_chaos_repro(const ChaosScenarioConfig& config,
                       const fault::FaultPlan& plan, std::ostream& os);
bool load_chaos_repro(std::istream& is, ChaosScenarioConfig& config,
                      fault::FaultPlan& plan, std::string* error = nullptr);

}  // namespace vcl::core
