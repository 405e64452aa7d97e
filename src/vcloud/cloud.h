// VehicularCloud: the operational unit pooling member vehicles' resources
// and running tasks on them (paper §II.C / §IV.A.2 / Fig. 4).
//
// One class serves all three architectures; what differs is where members
// come from (a MembershipFn) and what region anchors dwell estimates (a
// RegionFn). Factories for the three Fig. 4 types live at the bottom.
//
// Execution model: a worker runs one task at a time. Dispatch charges the
// input transfer, then the task runs at the worker's compute rate; a
// departing worker interrupts its task, which is either migrated (encrypted
// checkpoint, see handover.h) or re-queued from zero with the lost progress
// counted as wasted work — the exact trade-off §III.A calls out.
//
// Failure model (paper §III dependability): on top of *graceful* departures
// the cloud survives abrupt *crashes* injected via crash_worker() — the
// worker vanishes with no handover opportunity and the cloud only learns
// through missed heartbeats. The hardened path (all knobs in
// CloudConfig::dependability, default off) adds a heartbeat failure
// detector, ack+retry dispatch/result delivery over the lossy network,
// periodic crash-survivable checkpoints, and speculative replica execution
// for deadline-bearing tasks. See dependability.h.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "net/network.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/quantile_sketch.h"
#include "util/stats.h"
#include "vcloud/broker.h"
#include "vcloud/dependability.h"
#include "vcloud/dwell.h"
#include "vcloud/handover.h"
#include "vcloud/scheduler.h"

namespace vcl::cluster {
class ClusterManager;
}

namespace vcl::vcloud {

class AdmissionControl;
class InvariantOracle;

// Deliberate defects that prove the invariant oracle and chaos shrinker
// (DESIGN.md §9) catch real bugs; only tests and vcl_chaos arm one:
enum class SeededBug : std::uint8_t {
  kNone,
  kCrashRequeue,    // crash recovery never re-queues the task
  kRevokedRequeue,  // the revocation sweep drops the evicted worker's task
  kRepairReplace,   // storage repair deletes suspect copies, unreplaced
  kFailedResubmit,  // a DAG node whose last attempt failed is stranded
};

struct CloudRegion {
  geo::Vec2 center;
  double radius = 0.0;  // 0 = cloud currently has no operating area
};

struct CloudStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;      // lost with no recovery path
  std::size_t expired = 0;     // missed deadline
  std::size_t migrations = 0;
  std::size_t reallocations = 0;  // re-queued from zero after a departure
  double wasted_work = 0.0;       // work units thrown away
  // Accumulators keep moments; the paired sketches answer percentile
  // queries in fixed memory, so the stats survive 10⁶-task runs.
  Accumulator latency;      // completion - creation, s
  Accumulator queue_delay;  // dispatch - creation, s
  QuantileSketch latency_tail;      // tail quantiles of `latency`
  QuantileSketch queue_delay_tail;  // tail quantiles of `queue_delay`
  // Modeled broker<->worker heartbeat round trip (2x channel hop delay at
  // the beat's size and local density). Fed only while metrics telemetry is
  // registered: the density lookup is a spatial query we refuse to pay on
  // undisturbed runs.
  QuantileSketch heartbeat_rtt_tail;

  // Dependability counters (see dependability.h; all zero when the
  // hardened path is disabled).
  std::size_t retries = 0;           // dispatch/result re-sends after a loss
  std::size_t crash_kills = 0;       // declared-dead workers that had crashed
  std::size_t false_positive_kills = 0;  // live workers declared dead
  std::size_t checkpoints = 0;           // periodic snapshots taken
  std::size_t replicas_launched = 0;     // speculative replicas started
  std::size_t broker_resyncs = 0;        // broker changes re-syncing metadata
  double redundant_work = 0.0;     // discarded work of losing replicas
  double checkpoint_mb = 0.0;      // checkpoint bytes shipped to the broker
  Accumulator detection_latency;   // crash -> declared dead, seconds

  [[nodiscard]] double completion_rate() const {
    return submitted ? static_cast<double>(completed) /
                           static_cast<double>(submitted)
                     : 0.0;
  }
};

struct CloudConfig {
  DwellMode dwell_mode = DwellMode::kKinematic;
  HandoverConfig handover;
  DependabilityConfig dependability;
};

class VehicularCloud {
 public:
  using MembershipFn = std::function<std::vector<VehicleId>()>;
  using RegionFn = std::function<CloudRegion()>;

  VehicularCloud(CloudId id, net::Network& net, MembershipFn membership,
                 RegionFn region, std::unique_ptr<Scheduler> scheduler,
                 CloudConfig config, Rng rng);

  // Schedules the periodic refresh (and, when enabled, the heartbeat and
  // checkpoint rounds).
  void attach();
  // Re-reads membership, handles departures/arrivals, re-elects the broker,
  // expires stale tasks and dispatches the queue. Public for tests.
  void refresh();

  // Submits a task spec; returns its assigned id.
  TaskId submit(Task spec);

  // Abrupt crash fault (fault injection): the worker vanishes mid-task with
  // no handover opportunity. The cloud is NOT notified — it keeps the
  // zombie on its books until the failure detector declares it dead (or
  // forever, when the detector is off: the no-recovery collapse §III warns
  // about). The injector despawns the vehicle from traffic separately.
  void crash_worker(VehicleId v);
  [[nodiscard]] bool worker_crashed(VehicleId v) const {
    return crashed_.count(v.value()) > 0;
  }

  // Invoked whenever the broker hears a worker's heartbeat (including its
  // own trivial self-beat). The storage layer renews replica leases here —
  // lease liveness rides the existing heartbeat path rather than adding a
  // second beacon. Unset = one branch per beat (inertness contract).
  using HeartbeatHook = std::function<void(VehicleId, SimTime)>;
  void set_heartbeat_hook(HeartbeatHook hook) {
    heartbeat_hook_ = std::move(hook);
  }

  // Invoked at the end of every refresh(), after membership/broker/deadline
  // handling and dispatch but BEFORE the invariant oracle's end-of-round
  // scan — maintenance that must quiesce before the scan (storage lease
  // bookkeeping and repair) runs here. Unset = one branch per refresh.
  using RefreshHook = std::function<void(SimTime)>;
  void set_refresh_hook(RefreshHook hook) { refresh_hook_ = std::move(hook); }

  // Invoked on EVERY task terminal transition (completed or expired; the
  // cloud never produces kFailed), after state/stat updates and the
  // oracle's terminal hook. The DAG scheduler routes attempt terminals back
  // to their graph node here; the incentive ledger rewards completions by
  // filtering on TaskState::kCompleted. The hook may submit follow-up tasks
  // (which rehashes the task table), so it is always the last use of the
  // terminal task's reference and is never fired while the cloud iterates
  // its task structures. Unset = one branch per terminal (inertness
  // contract).
  using TerminalHook = std::function<void(const Task&, SimTime)>;
  void set_terminal_hook(TerminalHook hook) {
    terminal_hook_ = std::move(hook);
  }

  // --- telemetry (off by default: null recorder = one branch per event) -------
  // Emits cloud.* / task.* trace events (membership churn, broker changes,
  // dispatch/complete/retry, failure-detector kills).
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }
  // Registers cloud.* gauges (member count, queue depth, completion,
  // detection latency) and the tail sketches (task e2e, queue delay,
  // heartbeat RTT) with the sampler; also arms the per-beat heartbeat-RTT
  // sampling, which stays off until metrics are registered.
  void register_metrics(obs::MetricsRegistry& metrics);

  // --- flight recorder (always-on forensics, DESIGN.md §12) ------------------
  // Unlike set_trace this is wired unconditionally by the system facade:
  // the recorder is fixed-memory and RNG-neutral, so it stays on even when
  // telemetry is off. Null (bare unit-test clouds) = one branch per event.
  void set_flight(obs::FlightRecorder* flight) { flight_ = flight; }

  // --- invariant oracle (off by default: null oracle = one branch per hook) --
  // When set, the oracle's full scan runs at the end of every refresh() and
  // its terminal hook fires on every task terminal transition. The oracle
  // only reads through const accessors; runs are otherwise unchanged.
  void set_oracle(InvariantOracle* oracle) { oracle_ = oracle; }

  // --- adversarial admission (off by default: null = one branch per hook) ----
  // When set, refresh() consults the revocation-aware admission policy
  // (see admission.h): arrivals of revoked-visible identities are refused,
  // revoked members are evicted at the first refresh after their CRL
  // becomes visible — held work re-queued, not lost — and join claims
  // outside the beacon path go through offer_join(). The control is owned
  // by the system wiring; the cloud only consults it.
  void set_admission(AdmissionControl* admission) { admission_ = admission; }
  [[nodiscard]] const AdmissionControl* admission() const {
    return admission_;
  }

  // --- seeded bug (kNone by default: one compare at each gate site) ---------
  // Gates requeue() and the eviction sweep here; storage repair and the DAG
  // failed-attempt path read it through the cloud they hold.
  void arm_seeded_bug(SeededBug bug) { seeded_bug_ = bug; }
  [[nodiscard]] SeededBug seeded_bug() const { return seeded_bug_; }

  // A join claim arriving OUTSIDE the beacon membership path (fabricated
  // sybil identity, or a replayed join that survived the freshness gate).
  // With no admission control — or the defense off — the claim is admitted
  // as a full member: the membership pollution the E24 bench measures.
  // Returns true when the claim became a member.
  bool offer_join(VehicleId v, bool fabricated);
  // A replayed heartbeat that passed (or bypassed) the freshness gate:
  // refreshes the victim's detector liveness exactly like a genuine beat —
  // which is the §IV replay harm: it keeps a crashed zombie off the
  // failure detector's books.
  void replayed_heartbeat(VehicleId v);

  // True when `v` currently exists in the traffic model. The oracle's
  // membership census distinguishes traffic-backed members from crashed
  // zombies and admitted claims.
  [[nodiscard]] bool worker_in_traffic(VehicleId v) const;

  // Read-only introspection for the invariant oracle (and tests).
  void for_each_task(const std::function<void(const Task&)>& fn) const;
  [[nodiscard]] std::vector<TaskId> pending_ids() const;
  // Task occupying `v`'s execution slot (invalid when idle or unknown).
  [[nodiscard]] TaskId running_on(VehicleId v) const;
  [[nodiscard]] bool is_worker(VehicleId v) const {
    return workers_.find(v.value()) != workers_.end();
  }
  [[nodiscard]] bool has_replica(TaskId id) const {
    return replicas_.find(id.value()) != replicas_.end();
  }
  [[nodiscard]] const FailureDetector& detector() const { return detector_; }

  [[nodiscard]] const CloudStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t member_count() const { return workers_.size(); }
  // Current worker ids, sorted (includes crashed zombies the cloud has not
  // detected yet). Fault injection picks victims from this pool.
  [[nodiscard]] std::vector<VehicleId> worker_ids() const;
  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }
  [[nodiscard]] ResourcePool pool() const;
  [[nodiscard]] VehicleId broker() const { return broker_.current(); }
  [[nodiscard]] std::size_t broker_changes() const {
    return broker_.changes();
  }
  [[nodiscard]] const Task* find_task(TaskId id) const;
  [[nodiscard]] CloudRegion region() const { return region_fn_(); }
  [[nodiscard]] CloudId id() const { return id_; }
  // Compute profile of a current member (nullptr when not a member).
  [[nodiscard]] const ResourceProfile* worker_profile(VehicleId v) const;
  // Estimated dwell of `v` in `region` (the cloud's current region(), read
  // once per round by the caller), under the configured DwellMode: +inf for
  // parked vehicles, 0 for departed or despawned (crashed) ones and for an
  // empty region. The DAG replication policy predicts host departure with
  // this.
  [[nodiscard]] double worker_dwell(VehicleId v,
                                    const CloudRegion& region) const;
  // One view per member, sorted by id: what dispatch, replication, broker
  // election and handover read. Busy flags are re-read on every call; dwell
  // estimates are recomputed only when the traffic epoch or the region
  // (centre and radius, bitwise) changed since the last call, and for
  // members that joined since. The reference is valid until the next
  // membership change (DESIGN.md §4 "Control-plane cost").
  [[nodiscard]] const std::vector<WorkerView>& views() const;
  // Work counter: dwell estimates views() has made so far.
  [[nodiscard]] std::uint64_t dwell_estimates() const {
    return dwell_estimates_;
  }

 private:
  struct WorkerState {
    ResourceProfile profile;
    TaskId running;  // invalid when idle
  };
  // Beside each entry of views_: the member's state (unordered_map nodes
  // never move, so the pointer lives until remove_worker) and whether its
  // dwell estimate belongs to the memo's current key.
  struct ViewSlot {
    const WorkerState* state;
    bool dwell_fresh;
  };
  // A speculative second execution of a task (first finisher wins).
  struct ReplicaState {
    VehicleId worker;
    SimTime run_started = 0.0;
    double base_progress = 0.0;  // task progress at replica launch
    std::uint64_t epoch = 0;
  };

  // The only writers of workers_: each patches views_ in place.
  void add_worker(VehicleId v, const ResourceProfile& profile);
  // Removes a member and returns its last state.
  WorkerState remove_worker(VehicleId v);

  void dispatch();
  void assign(Task& task, WorkerState& worker, VehicleId worker_id,
              bool charge_input);
  void begin_execution(Task& task, WorkerState& worker, bool charge_input,
                       std::uint64_t epoch);
  void attempt_dispatch_send(TaskId id, std::uint64_t epoch, int attempt);
  void attempt_result_send(TaskId id, std::uint64_t epoch, int attempt);
  void on_complete(TaskId id, std::uint64_t epoch);
  void finalize_completion(Task& task);
  // The one terminal transition (kCompleted or kExpired): stales the task's
  // scheduled events, frees its worker slot and any live replica, sets the
  // state and stats, then records trace instant -> leg/root span end ->
  // flight -> oracle -> terminal hook, in that order. With `deferred` the
  // hook is not fired but its id appended, for callers still iterating the
  // task structures.
  void retire(Task& task, TaskState state, SimTime now,
              std::vector<TaskId>* deferred = nullptr);
  // The one way back to the queue: sets `state` (kPending or
  // kCrashRecovering), clears the worker and opens the queue leg. Only the
  // kCrashRequeue seeded bug keeps a kCrashRecovering task out.
  void requeue(Task& task, TaskState state);
  void interrupt_and_recover(Task& task, const WorkerState& departed);
  // Crash path: roll back to the last broker-held checkpoint and re-queue.
  void recover_from_crash(Task& task);
  void heartbeat_round();
  void checkpoint_round();
  void declare_dead(VehicleId v);
  // The one worker-loss path, for graceful departures, revocation evictions
  // and detector evictions alike (`state` is the worker's last state, already
  // removed from workers_). A lost replica holder only drops the hedge; a
  // lost primary hands over (graceful) or goes through crash recovery.
  void handle_worker_loss(VehicleId v, const WorkerState& state,
                          bool graceful);
  void maybe_replicate(Task& task);
  void on_replica_complete(TaskId id, std::uint64_t epoch);
  // Aborts a live replica (loser / deadline abort); counts its work as
  // redundancy and frees its worker.
  void abort_replica(TaskId id);
  [[nodiscard]] double earned_progress(const Task& task,
                                       const ResourceProfile& profile,
                                       SimTime now) const;
  [[nodiscard]] static double earned_by_replica(const ReplicaState& r,
                                                const ResourceProfile& profile,
                                                const Task& task, SimTime now);

  // --- causal span tracing (all no-ops when tracing is off) ------------------
  // Allocates the task's trace id, opens its root span and the first queue
  // leg. The cloud keeps exactly one `leg.*` span open per live task;
  // open_leg closes the previous leg at the same instant, so the legs
  // partition [submit, terminal] and vcl_traceview's breakdown sums to the
  // end-to-end latency by construction.
  void trace_task_start(Task& task);
  void trace_open_leg(
      Task& task, const char* name,
      std::initializer_list<obs::TraceRecorder::Field> fields = {});
  void trace_close_leg(
      Task& task,
      std::initializer_list<obs::TraceRecorder::Field> fields = {});
  // Closes the open leg and the root span with an outcome code
  // (obs::kOutcomeCompleted / kOutcomeExpired / kOutcomeFailed).
  void trace_task_end(Task& task, double outcome);

  CloudId id_;
  net::Network& net_;
  MembershipFn membership_fn_;
  RegionFn region_fn_;
  std::unique_ptr<Scheduler> scheduler_;
  CloudConfig config_;
  Rng rng_;
  BrokerElection broker_;

  std::unordered_map<std::uint64_t, WorkerState> workers_;
  // views() memo: one view and slot per member in id order, and the key
  // (traffic epoch, region) the fresh dwell estimates were made under.
  mutable std::vector<WorkerView> views_;
  mutable std::vector<ViewSlot> view_slots_;
  mutable bool dwell_keyed_ = false;
  mutable std::uint64_t dwell_epoch_ = 0;
  mutable CloudRegion dwell_region_;
  mutable std::uint64_t dwell_estimates_ = 0;
  std::unordered_map<std::uint64_t, Task> tasks_;
  // Every task in id order. tasks_ is never erased from, and its nodes
  // keep their addresses through a rehash.
  std::vector<const Task*> tasks_by_id_;
  std::unordered_map<std::uint64_t, std::uint64_t> task_epoch_;
  std::unordered_map<std::uint64_t, ReplicaState> replicas_;
  std::deque<TaskId> pending_;
  std::uint64_t next_task_id_ = 1;
  std::uint64_t next_replica_epoch_ = 1;
  CloudStats stats_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  // Armed by register_metrics(): per-beat RTT sampling costs a density
  // lookup, so undisturbed runs never pay it (telemetry inertness).
  bool heartbeat_rtt_enabled_ = false;
  InvariantOracle* oracle_ = nullptr;
  AdmissionControl* admission_ = nullptr;
  SeededBug seeded_bug_ = SeededBug::kNone;
  HeartbeatHook heartbeat_hook_;
  RefreshHook refresh_hook_;
  TerminalHook terminal_hook_;

  FailureDetector detector_;
  // Workers that crashed but have not been declared dead yet (zombies), and
  // when they crashed (for detection-latency accounting).
  std::unordered_set<std::uint64_t> crashed_;
  std::unordered_map<std::uint64_t, SimTime> crash_time_;
  SimTime dispatch_hold_until_ = 0.0;  // broker re-sync window
};

// ---- Fig. 4 architecture factories ------------------------------------------

// (a) Stationary: parked vehicles inside a fixed disc (airport lot, garage).
VehicularCloud::MembershipFn stationary_membership(
    const mobility::TrafficModel& traffic, geo::Vec2 center, double radius);
VehicularCloud::RegionFn fixed_region(geo::Vec2 center, double radius);

// (b) Infrastructure-based: vehicles under an RSU's (online) coverage.
VehicularCloud::MembershipFn rsu_membership(const net::Network& net, RsuId rsu);
VehicularCloud::RegionFn rsu_region(const net::Network& net, RsuId rsu);

// (c) Dynamic: the largest V2V cluster, wherever it drives. The region is
// a disc of `radius` around the cluster's centroid, memoized on (traffic
// epoch, cluster generation).
VehicularCloud::MembershipFn largest_cluster_membership(
    const cluster::ClusterManager& manager);
VehicularCloud::RegionFn largest_cluster_region(
    const mobility::TrafficModel& traffic,
    const cluster::ClusterManager& manager, double radius);

}  // namespace vcl::vcloud
