#include "vcloud/invariant_oracle.h"

#include <algorithm>
#include <sstream>

#include "vcloud/admission.h"
#include "vcloud/cloud.h"

namespace vcl::vcloud {

namespace {
// Fabricated identities the verification policy tolerates as members:
// none (AdmissionControl quarantines every sybil claim it defends against).
constexpr std::size_t kMaxUnverifiedMembers = 0;
}  // namespace

std::string InvariantViolation::to_string() const {
  std::ostringstream os;
  os << "[" << invariant << "] t=" << at;
  if (task.valid()) os << " task=" << task.value();
  os << " seed=" << seed << ": " << detail;
  return os.str();
}

void InvariantOracle::report(const std::string& invariant,
                             const std::string& detail, SimTime at,
                             TaskId task) {
  ++violation_count_;
  InvariantViolation v;
  v.invariant = invariant;
  v.detail = detail;
  v.at = at;
  v.task = task;
  v.seed = seed_;
  // The hook sees EVERY violation (the incident capture keys off the
  // first); storage below caps at kMaxStored.
  if (violation_hook_) violation_hook_(v);
  if (violations_.size() >= kMaxStored) return;
  violations_.push_back(std::move(v));
}

void InvariantOracle::on_terminal(const Task& task, SimTime now) {
  if (!task.terminal()) {
    report("terminal-once",
           std::string("terminal hook fired in non-terminal state ") +
               vcloud::to_string(task.state),
           now, task.id);
    return;
  }
  const auto [it, inserted] =
      terminal_state_.emplace(task.id.value(), task.state);
  if (!inserted) {
    report("terminal-once",
           std::string("second terminal transition: was ") +
               vcloud::to_string(it->second) + ", now " +
               vcloud::to_string(task.state),
           now, task.id);
  }
}

void InvariantOracle::on_storage_ack(FileId object, std::uint64_t version,
                                     const std::vector<VehicleId>& holders,
                                     SimTime now) {
  StorageTracking& t = storage_track_[object.value()];
  if (version < t.acked_version) {
    std::ostringstream os;
    os << "object " << object.value() << " acked version regressed "
       << t.acked_version << " -> " << version;
    report("storage-durability", os.str(), now);
    return;
  }
  t.acked_version = version;
  t.durable.clear();
  for (const VehicleId v : holders) t.durable.insert(v.value());
  t.crash_budget = 0;
  t.loss_reported = false;
}

void InvariantOracle::on_storage_read(std::uint64_t client, FileId object,
                                      std::uint64_t version, bool degraded,
                                      SimTime now) {
  if (degraded) return;  // flagged stale-risk by contract; exempt
  std::uint64_t& floor = read_floor_[{client, object.value()}];
  if (version < floor) {
    std::ostringstream os;
    os << "client " << client << " object " << object.value()
       << " quorum read went back in time: " << floor << " -> " << version;
    report("storage-monotonic-reads", os.str(), now);
    return;
  }
  floor = version;
}

void InvariantOracle::check_storage(const VehicularCloud& cloud, SimTime now) {
  const std::size_t n = storage_->replica_target();
  const std::size_t w = storage_->write_quorum();
  // Tolerated holder deaths between full-health instants. The issue frames
  // this as N−W; min(N−W, W−1) is the bound that is actually sound for every
  // valid W+R>N config (W copies survive at most W−1 deaths), and the two
  // coincide for the canonical N=3/W=2 deployment.
  const std::size_t budget_limit = std::min(n - w, w - 1);

  storage_->for_each_object([&](const StorageObjectView& obj) {
    // storage-replica-bounds: placement within [1, N] once acked, ≤ N always.
    if (obj.replicas.size() > n) {
      std::ostringstream os;
      os << "object " << obj.object.value() << " has " << obj.replicas.size()
         << " replicas (target " << n << ")";
      report("storage-replica-bounds", os.str(), now);
    }
    if (obj.acked_version > 0 && obj.replicas.empty()) {
      std::ostringstream os;
      os << "acked object " << obj.object.value() << " has an empty placement";
      report("storage-replica-bounds", os.str(), now);
    }

    // storage-lease-membership: held leases belong to current members.
    for (const StorageReplicaView& r : obj.replicas) {
      if (r.lease_held && !cloud.is_worker(r.holder)) {
        std::ostringstream os;
        os << "object " << obj.object.value() << " holder "
           << r.holder.value() << " holds a lease but is not a member";
        report("storage-lease-membership", os.str(), now);
      }
    }

    // storage-durability.
    StorageTracking& t = storage_track_[obj.object.value()];
    if (obj.acked_version < t.acked_version) {
      std::ostringstream os;
      os << "object " << obj.object.value() << " service acked version "
         << "regressed " << t.acked_version << " -> " << obj.acked_version;
      report("storage-durability", os.str(), now);
      return;
    }
    if (obj.acked_version > t.acked_version) {
      // An ack the hook never saw (service running without the ack hook
      // wired): adopt the view's durable set so tracking stays sound.
      t.acked_version = obj.acked_version;
      t.durable.clear();
      for (const StorageReplicaView& r : obj.replicas) {
        if (r.alive && r.version >= t.acked_version) {
          t.durable.insert(r.holder.value());
        }
      }
      t.crash_budget = 0;
      t.loss_reported = false;
    }
    if (t.acked_version == 0) return;  // nothing durable promised yet

    std::size_t live_acked = 0;
    std::unordered_set<std::uint64_t> present_alive;
    for (const StorageReplicaView& r : obj.replicas) {
      if (!r.alive) continue;
      present_alive.insert(r.holder.value());
      if (r.version >= t.acked_version) ++live_acked;
    }
    // Charge the budget for durable holders that physically died. A holder
    // that vanished from the placement while demonstrably alive (a repair
    // path discarding copies without deaths) charges nothing — that is the
    // defect this invariant exists to catch.
    for (auto it = t.durable.begin(); it != t.durable.end();) {
      const VehicleId v{*it};
      if (present_alive.count(*it) > 0) {
        ++it;
        continue;
      }
      if (!cloud.is_worker(v) || cloud.worker_crashed(v)) ++t.crash_budget;
      it = t.durable.erase(it);
    }
    if (live_acked >= n) {
      // Full health: repair restored the target replication, so the clock
      // on tolerated deaths restarts from this durable set.
      t.durable.clear();
      for (const StorageReplicaView& r : obj.replicas) {
        if (r.alive && r.version >= t.acked_version) {
          t.durable.insert(r.holder.value());
        }
      }
      t.crash_budget = 0;
      t.loss_reported = false;
    } else if (live_acked == 0 && t.crash_budget <= budget_limit &&
               !t.loss_reported) {
      std::ostringstream os;
      os << "object " << obj.object.value() << " acked v" << t.acked_version
         << " has no live up-to-date copy after only " << t.crash_budget
         << " holder death(s) (quorum tolerates " << budget_limit << ")";
      report("storage-durability", os.str(), now);
      t.loss_reported = true;
    }
  });
}

void InvariantOracle::on_dag_node_terminal(std::uint64_t graph,
                                           std::size_t node, SimTime now) {
  const auto [it, inserted] = dag_node_done_.emplace(graph, node);
  (void)it;
  if (!inserted) {
    std::ostringstream os;
    os << "graph " << graph << " node " << node
       << " committed success a second time";
    report("dag-terminal-once", os.str(), now);
  }
}

void InvariantOracle::check_dag(SimTime now) {
  dag_->for_each_graph([&](const DagGraphView& g) {
    const std::vector<DagNodeStateView>& nodes = *g.nodes;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const DagNodeStateView& n = nodes[i];
      // dag-completion-subset: success implies submission, and a completed
      // graph left no node behind.
      if (n.succeeded && !n.submitted) {
        std::ostringstream os;
        os << "graph " << g.id << " node " << i
           << " succeeded without ever being submitted";
        report("dag-completion-subset", os.str(), now);
      }
      if (g.completed && !n.succeeded) {
        std::ostringstream os;
        os << "graph " << g.id << " is completed but node " << i
           << " never succeeded";
        report("dag-completion-subset", os.str(), now);
      }
      // dag-dependency-order: no node is handed to the broker before every
      // parent reached terminal success.
      if (n.submitted) {
        for (const std::size_t p : n.parents) {
          if (!nodes[p].succeeded) {
            std::ostringstream os;
            os << "graph " << g.id << " node " << i
               << " submitted before parent " << p << " succeeded";
            report("dag-dependency-order", os.str(), now);
          }
        }
      }
      // dag-node-liveness: on a live graph a submitted node either already
      // succeeded or still has a live attempt — otherwise nothing will ever
      // finish it and the graph is silently stuck (the deliberate
      // kFailedResubmit seeded bug lands exactly here).
      if (!g.terminal && n.submitted && !n.succeeded &&
          n.live_attempts == 0) {
        std::ostringstream os;
        os << "graph " << g.id << " node " << i
           << " has no live attempt and no resubmission (stranded)";
        report("dag-node-liveness", os.str(), now);
      }
    }
    // dag-no-orphaned-intermediates: a finished graph released every parked
    // parent output.
    if (g.terminal && g.intermediates_held != 0) {
      std::ostringstream os;
      os << "graph " << g.id << " is terminal but still holds "
         << g.intermediates_held << " intermediate output(s)";
      report("dag-no-orphaned-intermediates", os.str(), now);
    }
  });
}

void InvariantOracle::check_admission(const VehicularCloud& cloud,
                                      SimTime now) {
  const AdmissionControl& adm = *admission_;

  std::size_t fabricated_members = 0;
  for (const VehicleId v : cloud.worker_ids()) {
    // auth-revoked-membership: inside [visible, horizon) the propagation
    // race is legal (SOME RSU knows, this one may not); strictly past the
    // horizon every RSU holds the CRL and eviction was contractually due.
    if (now > adm.revocation_horizon(v)) {
      std::ostringstream os;
      os << "worker " << v.value() << " is still a member past its CRL "
         << "horizon (" << adm.revocation_horizon(v) << ")";
      report("auth-revoked-membership", os.str(), now);
    }
    if (adm.is_fabricated(v)) ++fabricated_members;
    // membership-census: every worker entered through an accounted-for
    // path — live in traffic (beacon membership), a crashed zombie the
    // detector has not reaped, or an explicitly admitted claim.
    if (!cloud.worker_in_traffic(v) && !cloud.worker_crashed(v) &&
        !adm.was_admitted_claim(v)) {
      std::ostringstream os;
      os << "worker " << v.value() << " is neither traffic-backed, a known "
         << "crashed zombie, nor an admitted claim";
      report("membership-census", os.str(), now);
    }
  }

  // auth-sybil-admission: the verification policy is strict — a sybil claim
  // is quarantined, never a member.
  if (fabricated_members > kMaxUnverifiedMembers) {
    std::ostringstream os;
    os << fabricated_members << " fabricated member(s) exceed the policy "
       << "bound of " << kMaxUnverifiedMembers;
    report("auth-sybil-admission", os.str(), now);
  }

  // auth-revoked-holder: no live task is held by an identity revoked past
  // its horizon, or fabricated without ever being admitted.
  cloud.for_each_task([&](const Task& task) {
    if (task.terminal() || !task.worker.valid()) return;
    if (now > adm.revocation_horizon(task.worker)) {
      std::ostringstream os;
      os << "worker " << task.worker.value()
         << " holds a live task past its CRL horizon";
      report("auth-revoked-holder", os.str(), now, task.id);
    }
    if (adm.is_fabricated(task.worker) &&
        !adm.was_admitted_claim(task.worker)) {
      std::ostringstream os;
      os << "fabricated identity " << task.worker.value()
         << " holds a live task without ever being admitted";
      report("auth-revoked-holder", os.str(), now, task.id);
    }
  });

  // Leases / replicas via the storage view, when one is registered.
  if (storage_ != nullptr) {
    storage_->for_each_object([&](const StorageObjectView& obj) {
      for (const StorageReplicaView& r : obj.replicas) {
        if (!r.lease_held) continue;
        if (now > adm.revocation_horizon(r.holder)) {
          std::ostringstream os;
          os << "object " << obj.object.value() << " holder "
             << r.holder.value() << " keeps a lease past its CRL horizon";
          report("auth-revoked-holder", os.str(), now);
        }
        if (adm.is_fabricated(r.holder) &&
            !adm.was_admitted_claim(r.holder)) {
          std::ostringstream os;
          os << "object " << obj.object.value() << " lease held by "
             << "never-admitted fabricated identity " << r.holder.value();
          report("auth-revoked-holder", os.str(), now);
        }
      }
    });
  }
}

void InvariantOracle::check(const VehicularCloud& cloud, SimTime now) {
  ++checks_run_;

  if (storage_ != nullptr) check_storage(cloud, now);
  if (dag_ != nullptr) check_dag(now);
  if (admission_ != nullptr) check_admission(cloud, now);

  // Dispatch-queue multiplicity per task id. Entries referencing terminal
  // tasks are legal (the queue reaps them lazily); dangling ids are not.
  std::unordered_map<std::uint64_t, std::size_t> queued;
  for (const TaskId id : cloud.pending_ids()) ++queued[id.value()];
  for (const auto& [tid, n] : queued) {
    if (cloud.find_task(TaskId{tid}) == nullptr) {
      report("task-conservation", "queue entry references unknown task", now,
             TaskId{tid});
    }
  }

  std::size_t total = 0;
  std::size_t completed = 0;
  std::size_t expired = 0;
  std::size_t failed = 0;
  cloud.for_each_task([&](const Task& task) {
    ++total;
    const std::uint64_t tid = task.id.value();

    switch (task.state) {
      case TaskState::kCompleted: ++completed; break;
      case TaskState::kExpired: ++expired; break;
      case TaskState::kFailed: ++failed; break;

      case TaskState::kPending:
      case TaskState::kCrashRecovering: {
        // Queued states must sit in the dispatch queue exactly once or the
        // task is lost (never dispatched again) / runs twice.
        const auto it = queued.find(tid);
        const std::size_t n = it == queued.end() ? 0 : it->second;
        if (n != 1) {
          std::ostringstream os;
          os << vcloud::to_string(task.state) << " task queued " << n
             << " times (want exactly 1)";
          report("task-conservation", os.str(), now, task.id);
        }
        break;
      }

      case TaskState::kRunning: {
        if (task.worker.valid()) {
          if (!cloud.is_worker(task.worker)) {
            report("task-conservation",
                   "running on a worker the cloud no longer has", now,
                   task.id);
          } else if (!(cloud.running_on(task.worker) == task.id)) {
            report("task-conservation",
                   "running worker's slot holds a different task", now,
                   task.id);
          }
        } else if (!cloud.has_replica(task.id)) {
          // An invalid worker is legal only while a speculative replica
          // still carries the task (replica-inherit after a primary loss).
          report("task-conservation",
                 "running with no worker and no replica (orphaned)", now,
                 task.id);
        }
        break;
      }

      case TaskState::kMigrating: {
        if (!task.worker.valid() || !cloud.is_worker(task.worker) ||
            !(cloud.running_on(task.worker) == task.id)) {
          report("task-conservation",
                 "migrating without a reserved target worker", now, task.id);
        }
        break;
      }
    }

    // terminal-once, scan half: a recorded terminal state may never mutate,
    // and a terminal task the hook never saw means a transition bypassed it.
    const auto term = terminal_state_.find(tid);
    if (term != terminal_state_.end()) {
      if (task.state != term->second) {
        report("terminal-once",
               std::string("terminal state mutated: recorded ") +
                   vcloud::to_string(term->second) + ", now " +
                   vcloud::to_string(task.state),
               now, task.id);
      }
    } else if (task.terminal()) {
      report("terminal-once", "terminal task never reported via hook", now,
             task.id);
    }

    // checkpoint-monotonicity: the crash-survivable floor never regresses
    // and stays within [0, work].
    constexpr double kEps = 1e-9;
    if (task.checkpoint_progress < -kEps ||
        task.checkpoint_progress > task.work + kEps) {
      std::ostringstream os;
      os << "checkpoint " << task.checkpoint_progress << " outside [0, "
         << task.work << "]";
      report("checkpoint-monotonicity", os.str(), now, task.id);
    }
    auto [floor_it, inserted] =
        checkpoint_floor_.emplace(tid, task.checkpoint_progress);
    if (!inserted) {
      if (task.checkpoint_progress < floor_it->second - kEps) {
        std::ostringstream os;
        os << "checkpoint regressed " << floor_it->second << " -> "
           << task.checkpoint_progress;
        report("checkpoint-monotonicity", os.str(), now, task.id);
      }
      floor_it->second = std::max(floor_it->second, task.checkpoint_progress);
    }
  });

  // stats-consistency: counters must equal the census. (completed/expired/
  // failed are mutually exclusive terminal states, so equality per counter
  // also rules out double-counting.)
  const CloudStats& stats = cloud.stats();
  const auto check_counter = [&](const char* name, std::size_t counter,
                                 std::size_t census) {
    if (counter != census) {
      std::ostringstream os;
      os << "stats." << name << "=" << counter << " but census says "
         << census;
      report("stats-consistency", os.str(), now);
    }
  };
  check_counter("submitted", stats.submitted, total);
  check_counter("completed", stats.completed, completed);
  check_counter("expired", stats.expired, expired);
  check_counter("failed", stats.failed, failed);

  // broker-uniqueness: at refresh end the broker is one of the current
  // workers, and a non-empty cloud always has one.
  const VehicleId broker = cloud.broker();
  if (broker.valid() && !cloud.is_worker(broker)) {
    std::ostringstream os;
    os << "broker " << broker.value() << " is not a current member";
    report("broker-uniqueness", os.str(), now);
  }
  if (!broker.valid() && cloud.member_count() > 0) {
    report("broker-uniqueness", "members present but no broker elected", now);
  }

  // detector-subset: tracked ⊆ workers. The reverse (workers the detector
  // has not picked up yet) is legal between a join and the next heartbeat
  // round.
  for (const VehicleId v : cloud.detector().tracked_ids()) {
    if (!cloud.is_worker(v)) {
      std::ostringstream os;
      os << "detector tracks " << v.value() << " which is not a worker";
      report("detector-subset", os.str(), now);
    }
  }
}

}  // namespace vcl::vcloud
