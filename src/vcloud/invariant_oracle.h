// InvariantOracle: machine-checked global safety for the vehicular cloud
// (DESIGN.md §9).
//
// The dependability benches measure *how well* the cloud performs under
// faults; nothing verified that it stays *correct* — a task silently
// dropped on a crash path would only show up as a small completion-rate
// drift no test asserts on. The oracle closes that gap: it is hooked into
// VehicularCloud::refresh() (end-of-round scan) and every task terminal
// transition, and checks structural invariants that must hold no matter
// which faults fired:
//
//  * task-conservation — every submitted task is accounted for: terminal,
//    running/migrating on a live worker entry, or queued; every
//    kPending/kCrashRecovering task sits in the dispatch queue exactly
//    once, and queue entries reference existing tasks.
//  * terminal-once — a terminal state is absorbing: no task reaches a
//    second terminal transition or mutates its terminal state afterwards.
//  * stats-consistency — CloudStats counters equal a census of task
//    states (submitted/completed/expired/failed).
//  * broker-uniqueness — at refresh end the elected broker is a current
//    member (or invalid only when the cloud has no members).
//  * checkpoint-monotonicity — a task's crash-survivable floor never
//    regresses and stays within [0, work].
//  * detector-subset — the failure detector tracks only current workers
//    (a forgotten forget() would mass-kill future joiners).
//
// When a storage service registers itself (set_storage, an abstract
// StorageIntrospection so vcloud never depends on storage), the same scan
// additionally checks the storage-layer invariants:
//
//  * storage-durability — no acknowledged write is lost while the holder
//    crash budget is within what the write quorum tolerates: an acked
//    object with zero live up-to-date copies is a violation unless more
//    than min(N−W, W−1) of its durable holders physically died since the
//    last ack / full-health instant. (Deleting copies without deaths — a
//    broken repair path — is exactly what this catches.)
//  * storage-monotonic-reads — per (client, object), quorum reads never
//    return an older version than an earlier quorum read. Degraded reads
//    are flagged stale-risk by contract and exempt.
//  * storage-replica-bounds — replica placement never exceeds N, and an
//    acknowledged object never has an empty placement (repair swaps, it
//    does not discard).
//  * storage-lease-membership — every currently-held lease belongs to a
//    current cloud member.
//
// Inertness contract (same style as telemetry): the cloud holds a nullable
// `InvariantOracle*`; with no oracle set the only cost is one branch per
// would-be check and runs are byte-identical to an oracle-free build. The
// oracle never mutates the cloud — all accessors it uses are const.
//
// A violation is a structured record carrying {invariant, detail, sim
// time, offending task, episode seed}. The fault schedule that produced it
// lives one layer up (core::chaos / tools/vcl_chaos) — vcloud cannot
// depend on fault — which pairs the violation with the replayable plan.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/ids.h"
#include "util/time.h"
#include "vcloud/task.h"

namespace vcl::vcloud {

class AdmissionControl;
class VehicularCloud;

// Read-only storage-layer view for the oracle's storage invariants. The
// concrete store lives in src/storage (which depends on vcloud, not the
// other way around), so the oracle sees it through this interface.
struct StorageReplicaView {
  VehicleId holder;
  std::uint64_t version = 0;  // physical copy version (0 = no data yet)
  bool alive = false;         // vehicle exists in traffic and has not crashed
  bool lease_held = false;    // unexpired lease at view time
};

struct StorageObjectView {
  FileId object;
  std::uint64_t acked_version = 0;  // highest version acked to a client
  std::vector<StorageReplicaView> replicas;  // current placement
};

class StorageIntrospection {
 public:
  virtual ~StorageIntrospection() = default;
  // Objects in ascending id order (deterministic violation ordering).
  virtual void for_each_object(
      const std::function<void(const StorageObjectView&)>& fn) const = 0;
  [[nodiscard]] virtual std::size_t replica_target() const = 0;  // N
  [[nodiscard]] virtual std::size_t write_quorum() const = 0;    // W
};

// Read-only DAG-scheduler view for the oracle's DAG invariants. The
// concrete scheduler lives in src/dag (which depends on vcloud, not the
// other way around), so the oracle sees it through this interface — the
// same pattern as StorageIntrospection.
struct DagNodeStateView {
  bool submitted = false;   // at least one attempt handed to the broker
  bool succeeded = false;   // a winning attempt completed
  std::size_t live_attempts = 0;  // attempts not yet terminal
  std::vector<std::size_t> parents;  // dependency node indices
};

struct DagGraphView {
  std::uint64_t id = 0;
  bool terminal = false;   // completed or failed
  bool completed = false;  // every node succeeded
  std::size_t intermediates_held = 0;  // parent outputs parked at the broker
  const std::vector<DagNodeStateView>* nodes = nullptr;
};

class DagIntrospection {
 public:
  virtual ~DagIntrospection() = default;
  // Graphs in ascending id order (deterministic violation ordering).
  virtual void for_each_graph(
      const std::function<void(const DagGraphView&)>& fn) const = 0;
};

struct InvariantViolation {
  std::string invariant;  // e.g. "task-conservation"
  std::string detail;     // human-readable specifics
  SimTime at = 0.0;       // sim time of the failing check
  TaskId task;            // offending task (invalid when not task-scoped)
  std::uint64_t seed = 0;  // episode seed (0 when the harness set none)

  [[nodiscard]] std::string to_string() const;
};

class InvariantOracle {
 public:
  // `seed` is stamped into every violation so a record is self-describing
  // even after it leaves the episode that produced it.
  explicit InvariantOracle(std::uint64_t seed = 0) : seed_(seed) {}

  // Full structural scan; the cloud calls this at the end of refresh()
  // (several invariants only quiesce there — e.g. broker membership is
  // transiently stale between a detector kill and the next election).
  void check(const VehicularCloud& cloud, SimTime now);

  // Terminal-transition hook: records first terminal states and flags a
  // second terminal transition of the same task.
  void on_terminal(const Task& task, SimTime now);

  // --- storage invariants (active only after set_storage) --------------------
  // Registers the storage service; its objects join every check() scan.
  void set_storage(const StorageIntrospection* storage) { storage_ = storage; }
  // A write was acknowledged to a client: `holders` is the replica set that
  // made the quorum. Resets the object's durable set and crash budget.
  void on_storage_ack(FileId object, std::uint64_t version,
                      const std::vector<VehicleId>& holders, SimTime now);
  // A read returned to `client`. Quorum reads feed the per-(client, object)
  // monotonicity floor; degraded (stale-risk) reads are exempt by contract.
  void on_storage_read(std::uint64_t client, FileId object,
                       std::uint64_t version, bool degraded, SimTime now);

  // --- DAG invariants (active only after set_dag) ----------------------------
  // Registers the DAG scheduler; its graphs join every check() scan:
  //  * dag-dependency-order — a submitted node's parents all succeeded (no
  //    node runs before every parent reached terminal success);
  //  * dag-completion-subset — a completed graph has every node succeeded,
  //    and a succeeded node was submitted (completed ⊆ submitted);
  //  * dag-node-liveness — on a live graph, a submitted-but-unsucceeded
  //    node keeps at least one live attempt (a dropped resubmit strands
  //    the node, and the whole graph, forever);
  //  * dag-no-orphaned-intermediates — a terminal graph holds no parked
  //    parent outputs.
  void set_dag(const DagIntrospection* dag) { dag_ = dag; }
  // A node's success was committed (children unlocked, intermediate
  // parked). A second commit for the same (graph, node) is the DAG
  // terminal-once violation.
  void on_dag_node_terminal(std::uint64_t graph, std::size_t node,
                            SimTime now);

  // --- auth/admission invariants (active only after set_admission) -----------
  // Registers the admission control whose defenses the scan audits:
  //  * auth-revoked-membership — no identity stays a member past its
  //    per-RSU CRL horizon (inside the horizon the propagation race is
  //    legal; past it, eviction was contractually due);
  //  * auth-revoked-holder — no task, lease or replica is held by an
  //    identity that is revoked past its horizon, or fabricated and never
  //    admitted under the verification policy;
  //  * auth-sybil-admission — no fabricated identity is a current member
  //    (the policy is strict: quarantine, never membership);
  //  * membership-census — every worker is traffic-backed, a known crashed
  //    zombie, or an explicitly admitted claim (nothing joins membership
  //    without an accounted-for path).
  void set_admission(const AdmissionControl* admission) {
    admission_ = admission;
  }

  // Fires on EVERY reported violation, at the instant report() runs —
  // before control returns to the subsystem that tripped the check. The
  // incident-forensics layer (core::chaos) installs a capture here so the
  // bundle snapshots the system in the exact offending state, not the
  // drained end-of-episode state. The hook must only read (const
  // accessors); it runs inside cloud refresh/terminal paths.
  using ViolationHook = std::function<void(const InvariantViolation&)>;
  void set_violation_hook(ViolationHook hook) {
    violation_hook_ = std::move(hook);
  }

  [[nodiscard]] const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  [[nodiscard]] bool ok() const { return violation_count_ == 0; }
  // Total violations seen (storage caps at kMaxStored; the count does not).
  [[nodiscard]] std::size_t violation_count() const {
    return violation_count_;
  }
  [[nodiscard]] std::size_t checks_run() const { return checks_run_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  static constexpr std::size_t kMaxStored = 64;

 private:
  void report(const std::string& invariant, const std::string& detail,
              SimTime at, TaskId task = TaskId{});
  void check_storage(const VehicularCloud& cloud, SimTime now);
  void check_dag(SimTime now);
  void check_admission(const VehicularCloud& cloud, SimTime now);

  // Durability bookkeeping per object: the holders that carried the acked
  // version at the last reset (ack or full health) and how many of them
  // have physically died since. A loss is only a violation while the death
  // count is within what the write quorum contractually tolerates.
  struct StorageTracking {
    std::uint64_t acked_version = 0;
    std::unordered_set<std::uint64_t> durable;  // holders of the acked copy
    std::size_t crash_budget = 0;               // durable holders dead since reset
    bool loss_reported = false;                 // one report per acked epoch
  };

  std::uint64_t seed_;
  ViolationHook violation_hook_;
  std::vector<InvariantViolation> violations_;
  std::size_t violation_count_ = 0;
  std::size_t checks_run_ = 0;
  // First observed terminal state per task id (terminal-once).
  std::unordered_map<std::uint64_t, TaskState> terminal_state_;
  // Last observed checkpoint floor per task id (monotonicity).
  std::unordered_map<std::uint64_t, double> checkpoint_floor_;
  const StorageIntrospection* storage_ = nullptr;
  std::unordered_map<std::uint64_t, StorageTracking> storage_track_;
  // Highest version returned by a quorum read, per (client, object).
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> read_floor_;
  const DagIntrospection* dag_ = nullptr;
  // (graph, node) pairs whose success was committed (DAG terminal-once).
  std::set<std::pair<std::uint64_t, std::size_t>> dag_node_done_;
  const AdmissionControl* admission_ = nullptr;
};

}  // namespace vcl::vcloud
