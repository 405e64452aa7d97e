// DagScheduler: decomposition scheduling of TaskGraphs on a VehicularCloud
// (arXiv 2210.07337's reliability-aware replication, paper §III.A).
//
// The scheduler turns graph nodes into ordinary broker tasks: a node
// becomes *ready* when every parent committed terminal success, at which
// point its attempts are submitted to the cloud (the broker's own
// Scheduler still picks the worker). Intermediate outputs route between
// hosts on the same channel model every task uses — a parent's output
// ships worker->broker on the result path, is parked at the broker per
// child edge, and is consumed as the child's dispatch input
// (input_mb = sum of incoming transfer sizes).
//
// Placement/replication policies at equal replica budget k:
//
//   none        one attempt per node; failures resubmit (up to 6
//               attempts per node) only after the cloud detects them;
//   blind-k     k attempts per node up front, first finisher wins — the
//               classic baseline that pays k× load for every node;
//   reliability-aware
//               one attempt up front; a scan every second ("dag.check")
//               compares each running host's predicted dwell time against
//               the node's expected remaining execution time and launches
//               a backup attempt only when the host is predicted to leave
//               before the node finishes (dwell < 1.25 × remaining/rate),
//               capped at k live attempts per node. Crashed hosts predict
//               zero dwell, so backups launch before the failure detector
//               even fires.
//
// The attempt budget (6), the dwell margin (1.25) and the scan period (1 s)
// are named constants in scheduler.cpp; DagConfig picks only the policy, k
// and the graph deadline.
//
// The scheduler claims the cloud's terminal hook (every attempt's terminal
// transition routes back here), is deterministic per (config, seed), and
// follows the telemetry inertness contract: null trace/oracle = one branch
// per would-be event.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "dag/task_graph.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "util/quantile_sketch.h"
#include "util/stats.h"
#include "vcloud/cloud.h"
#include "vcloud/invariant_oracle.h"

namespace vcl::dag {

enum class DagPolicy : std::uint8_t { kNone, kBlindK, kReliabilityAware };

const char* to_string(DagPolicy policy);

struct DagConfig {
  bool enabled = false;        // gate used by core::SystemConfig wiring
  DagPolicy policy = DagPolicy::kNone;
  std::size_t replicas = 2;    // k: attempts per node (blind-k up front;
                               // reliability-aware live-attempt cap)
  SimTime graph_deadline = 0.0;  // relative deadline per graph (0 = none)
};

// Empty string when sane, else a one-line description of the first problem
// (same contract as fault::validate): 1 <= k <= the per-node attempt budget,
// a non-negative graph deadline, and — when the fleet size is known (> 0) —
// a replication factor that the fleet can actually host.
[[nodiscard]] std::string validate(const DagConfig& config,
                                   std::size_t fleet_size = 0);

struct DagStats {
  std::size_t graphs_submitted = 0;
  std::size_t graphs_completed = 0;
  std::size_t graphs_failed = 0;
  std::size_t nodes_submitted = 0;  // attempts handed to the broker
  std::size_t nodes_succeeded = 0;
  std::size_t resubmits = 0;        // failure-driven re-attempts
  std::size_t backups = 0;          // reliability-aware risk backups
  std::size_t blind_replicas = 0;   // blind-k extra up-front attempts
  std::size_t transfers = 0;        // parent->child intermediates routed
  double transfer_mb = 0.0;
  Accumulator makespan;      // graph submit -> complete, s
  Accumulator node_latency;  // ready -> success, s
  QuantileSketch node_latency_tail;
};

class DagScheduler final : public vcloud::DagIntrospection {
 public:
  // Throws std::invalid_argument when validate(config) reports a problem.
  DagScheduler(net::Network& net, vcloud::VehicularCloud& cloud,
               DagConfig config, Rng rng);

  // Claims the cloud's terminal hook and (reliability-aware policy only)
  // schedules the periodic "dag.check" scan. Call once, after the cloud's
  // attach().
  void attach();

  // Submits a sealed graph (seals it if the caller has not); source nodes
  // are handed to the broker immediately. Returns the graph's id.
  std::uint64_t submit_graph(TaskGraph graph, SimTime now);

  [[nodiscard]] const DagStats& stats() const { return stats_; }
  [[nodiscard]] const DagConfig& config() const { return config_; }
  // True when every submitted graph reached a terminal state.
  [[nodiscard]] bool all_done() const;

  // Deterministic victim resolution for DAG-targeted chaos storms: the
  // worker currently running the heaviest-downstream-critical-weight node
  // of the graph selected by `tag` among live graphs (tag mod count,
  // ascending id). Invalid when nothing qualifies — the injector falls
  // back to its ordinary victim pool.
  [[nodiscard]] VehicleId storm_victim(std::uint64_t tag) const;

  // Nullable hookups, same inertness contract as the cloud's.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }
  void set_oracle(vcloud::InvariantOracle* oracle) { oracle_ = oracle; }
  // Always-on forensics (DESIGN.md §12): backup launches and graph
  // failures land in the flight recorder.
  void set_flight(obs::FlightRecorder* flight) { flight_ = flight; }

  // --- DagIntrospection (invariant oracle view) ------------------------------
  void for_each_graph(
      const std::function<void(const vcloud::DagGraphView&)>& fn)
      const override;

 private:
  struct NodeRun {
    bool submitted = false;
    bool succeeded = false;
    std::size_t live = 0;           // attempts not yet terminal
    std::size_t attempt_count = 0;  // attempts ever launched
    std::vector<TaskId> attempts;   // every attempt's broker task id
    SimTime ready_at = 0.0;         // when the node was first submitted
    SimTime finished_at = 0.0;
  };
  struct GraphRun {
    std::uint64_t id = 0;
    TaskGraph graph;
    SimTime submitted_at = 0.0;
    SimTime deadline = 0.0;  // absolute; 0 = none
    std::vector<NodeRun> nodes;
    std::size_t succeeded_count = 0;
    std::size_t intermediates_held = 0;  // parked parent outputs at broker
    bool completed = false;
    bool failed = false;
    obs::TraceContext trace;  // dag.run root span

    [[nodiscard]] bool terminal() const { return completed || failed; }
  };

  // The cloud's terminal hook: routes every attempt terminal back to its
  // node. `task` may dangle once a follow-up submit rehashes the cloud's
  // task table, so everything needed is copied up front.
  void on_task_terminal(const vcloud::Task& task, SimTime now);
  void commit_success(GraphRun& g, std::size_t node, SimTime now);
  void submit_node(GraphRun& g, std::size_t node, SimTime now);
  void submit_attempt(GraphRun& g, std::size_t node, SimTime now);
  void complete_graph(GraphRun& g, SimTime now);
  void fail_graph(GraphRun& g, SimTime now);
  void close_graph_trace(GraphRun& g, SimTime now, double outcome);
  // Periodic reliability-aware scan ("dag.check").
  void reliability_scan();
  [[nodiscard]] bool node_ready(const GraphRun& g, std::size_t node) const;

  net::Network& net_;
  vcloud::VehicularCloud& cloud_;
  DagConfig config_;
  Rng rng_;
  std::map<std::uint64_t, GraphRun> graphs_;  // ordered: deterministic scans
  // Broker task id -> (graph id, node index) for live attempts.
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::size_t>>
      task_to_node_;
  std::uint64_t next_graph_id_ = 1;
  DagStats stats_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  vcloud::InvariantOracle* oracle_ = nullptr;
};

}  // namespace vcl::dag
