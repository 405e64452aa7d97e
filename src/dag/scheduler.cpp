#include "dag/scheduler.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace vcl::dag {

const char* to_string(DagPolicy policy) {
  switch (policy) {
    case DagPolicy::kNone: return "none";
    case DagPolicy::kBlindK: return "blind-k";
    case DagPolicy::kReliabilityAware: return "reliability-aware";
  }
  return "unknown";
}

namespace {

constexpr std::size_t kMaxNodeAttempts = 6;  // total attempt budget per node
constexpr double kDwellMargin = 1.25;  // safety factor on expected remaining
constexpr SimTime kCheckPeriod = 1.0;  // reliability-aware scan period

}  // namespace

std::string validate(const DagConfig& config, std::size_t fleet_size) {
  if (config.replicas == 0) {
    return "replicas must be >= 1 (k attempts per node)";
  }
  if (config.replicas > kMaxNodeAttempts) {
    std::ostringstream os;
    os << "replicas (" << config.replicas << ") exceed the per-node attempt "
       << "budget (" << kMaxNodeAttempts << ")";
    return os.str();
  }
  if (config.graph_deadline < 0.0) {
    std::ostringstream os;
    os << "graph_deadline must be >= 0 (got " << config.graph_deadline << ")";
    return os.str();
  }
  if (fleet_size > 0 && config.replicas > fleet_size) {
    std::ostringstream os;
    os << "replication factor " << config.replicas << " exceeds the fleet ("
       << fleet_size << " vehicles): k copies can never run on distinct hosts";
    return os.str();
  }
  return {};
}

DagScheduler::DagScheduler(net::Network& net, vcloud::VehicularCloud& cloud,
                           DagConfig config, Rng rng)
    : net_(net), cloud_(cloud), config_(config), rng_(rng) {
  const std::string problem = validate(config_);
  if (!problem.empty()) {
    throw std::invalid_argument("DagConfig: " + problem);
  }
}

void DagScheduler::attach() {
  cloud_.set_terminal_hook([this](const vcloud::Task& task, SimTime now) {
    on_task_terminal(task, now);
  });
  if (config_.policy == DagPolicy::kReliabilityAware) {
    net_.simulator().schedule_every(
        kCheckPeriod, [this] { reliability_scan(); }, -1.0,
        "dag.check");
  }
}

std::uint64_t DagScheduler::submit_graph(TaskGraph graph, SimTime now) {
  if (!graph.sealed()) graph.seal();
  const std::uint64_t id = next_graph_id_++;
  GraphRun& g = graphs_[id];
  g.id = id;
  g.graph = std::move(graph);
  g.submitted_at = now;
  g.deadline =
      config_.graph_deadline > 0.0 ? now + config_.graph_deadline : 0.0;
  g.nodes.assign(g.graph.size(), NodeRun{});
  ++stats_.graphs_submitted;

  if (trace_ != nullptr) {
    g.trace.trace_id = trace_->new_trace_id();
    g.trace.span_id = trace_->begin_span(
        now, obs::TraceCategory::kDag, "dag.run",
        obs::TraceContext{g.trace.trace_id, 0},
        {{"graph", static_cast<double>(id)},
         {"nodes", static_cast<double>(g.graph.size())},
         {"work", g.graph.total_work()}});
    // The dependency edges ride along as instants so trace analysis can
    // rebuild the graph and walk the true critical path (DESIGN.md §8).
    for (const DagEdge& e : g.graph.edges()) {
      trace_->record(now, obs::TraceCategory::kDag, "dag.edge", g.trace,
                     {{"from", static_cast<double>(e.from)},
                      {"to", static_cast<double>(e.to)},
                      {"mb", e.transfer_mb}});
    }
  }

  // Sources are ready immediately.
  for (std::size_t i = 0; i < g.graph.size(); ++i) {
    if (g.graph.parents(i).empty()) submit_node(g, i, now);
  }
  return id;
}

bool DagScheduler::node_ready(const GraphRun& g, std::size_t node) const {
  for (const std::size_t p : g.graph.parents(node)) {
    if (!g.nodes[p].succeeded) return false;
  }
  return true;
}

void DagScheduler::submit_node(GraphRun& g, std::size_t node, SimTime now) {
  NodeRun& n = g.nodes[node];
  n.submitted = true;
  n.ready_at = now;
  // Consume the parked parent outputs: they ship broker->worker as the
  // node's dispatch input from here on.
  const std::size_t inputs = g.graph.parents(node).size();
  g.intermediates_held -= std::min(g.intermediates_held, inputs);
  stats_.transfers += inputs;
  stats_.transfer_mb += g.graph.input_mb(node);

  std::size_t copies = 1;
  if (config_.policy == DagPolicy::kBlindK) {
    copies = config_.replicas;
  }
  for (std::size_t c = 0; c < copies; ++c) {
    submit_attempt(g, node, now);
    if (c > 0) ++stats_.blind_replicas;
  }
}

void DagScheduler::submit_attempt(GraphRun& g, std::size_t node,
                                  SimTime now) {
  NodeRun& n = g.nodes[node];
  vcloud::Task spec;
  spec.work = g.graph.node(node).work;
  spec.input_mb = g.graph.input_mb(node);
  spec.output_mb = g.graph.node(node).output_mb;
  spec.deadline = g.deadline;
  // Pre-stamp the dag.run context: the cloud parents the attempt's
  // task.life span under it instead of rooting a fresh trace, so the whole
  // graph run is one trace tree.
  if (trace_ != nullptr && g.trace.trace_id != 0) spec.trace = g.trace;
  const TaskId id = cloud_.submit(std::move(spec));
  task_to_node_[id.value()] = {g.id, node};
  n.attempts.push_back(id);
  ++n.attempt_count;
  ++n.live;
  ++stats_.nodes_submitted;
  if (trace_ != nullptr && g.trace.trace_id != 0) {
    trace_->record(now, obs::TraceCategory::kDag, "dag.node", g.trace,
                   {{"node", static_cast<double>(node)},
                    {"task", static_cast<double>(id.value())},
                    {"attempt", static_cast<double>(n.attempt_count)}});
  }
}

void DagScheduler::on_task_terminal(const vcloud::Task& task, SimTime now) {
  const auto it = task_to_node_.find(task.id.value());
  if (it == task_to_node_.end()) return;  // not a DAG attempt
  const auto [gid, node] = it->second;
  task_to_node_.erase(it);
  // Copy everything needed NOW: submit_attempt below rehashes the cloud's
  // task table and `task` may dangle.
  const bool completed = task.state == vcloud::TaskState::kCompleted;

  GraphRun& g = graphs_.at(gid);
  NodeRun& n = g.nodes[node];
  if (n.live > 0) --n.live;

  if (g.terminal() || n.succeeded) return;  // late loser / moot graph

  if (completed) {
    commit_success(g, node, now);
    return;
  }
  // The attempt failed or expired. While siblings are still live the node
  // is covered; once the last one dies the node needs a resubmission (or
  // the graph is out of budget/time and fails). The seeded bug strands it.
  if (n.live > 0) return;
  if (cloud_.seeded_bug() == vcloud::SeededBug::kFailedResubmit) return;
  const bool out_of_time = g.deadline > 0.0 && now >= g.deadline;
  if (!out_of_time && n.attempt_count < kMaxNodeAttempts) {
    ++stats_.resubmits;
    submit_attempt(g, node, now);
    return;
  }
  fail_graph(g, now);
}

void DagScheduler::commit_success(GraphRun& g, std::size_t node,
                                  SimTime now) {
  NodeRun& n = g.nodes[node];
  n.succeeded = true;
  n.finished_at = now;
  ++g.succeeded_count;
  ++stats_.nodes_succeeded;
  stats_.node_latency.add(now - n.ready_at);
  stats_.node_latency_tail.add(now - n.ready_at);
  if (oracle_ != nullptr) oracle_->on_dag_node_terminal(g.id, node, now);
  // Park one intermediate per outgoing edge; each is consumed when the
  // child is submitted.
  g.intermediates_held += g.graph.children(node).size();
  for (const std::size_t child : g.graph.children(node)) {
    if (!g.nodes[child].submitted && node_ready(g, child)) {
      submit_node(g, child, now);
    }
  }
  if (g.succeeded_count == g.graph.size()) complete_graph(g, now);
}

void DagScheduler::complete_graph(GraphRun& g, SimTime now) {
  g.completed = true;
  ++stats_.graphs_completed;
  stats_.makespan.add(now - g.submitted_at);
  // Every child consumed its parents' parked outputs on submission and
  // sink outputs were delivered on the result path, so nothing may remain
  // parked — the oracle's dag-no-orphaned-intermediates invariant checks
  // exactly this, which is why the count is NOT zeroed here.
  close_graph_trace(g, now, obs::kOutcomeCompleted);
}

void DagScheduler::fail_graph(GraphRun& g, SimTime now) {
  g.failed = true;
  ++stats_.graphs_failed;
  if (flight_ != nullptr) {
    flight_->record(now, obs::FlightCategory::kDag, "dag.graph.fail", g.id,
                    g.succeeded_count);
  }
  // The broker discards the parked outputs of a failed graph.
  g.intermediates_held = 0;
  close_graph_trace(g, now, obs::kOutcomeFailed);
}

void DagScheduler::close_graph_trace(GraphRun& g, SimTime now,
                                     double outcome) {
  if (trace_ == nullptr || g.trace.span_id == 0) return;
  trace_->end_span(now, obs::TraceCategory::kDag, "dag.run", g.trace,
                   {{"outcome", outcome},
                    {"succeeded", static_cast<double>(g.succeeded_count)}});
  g.trace.span_id = 0;
}

void DagScheduler::reliability_scan() {
  const SimTime now = net_.simulator().now();
  // The cloud region is read once per scan, on the first running attempt:
  // no simulated time passes during the scan, so it cannot move.
  std::optional<vcloud::CloudRegion> region;
  for (auto& [gid, g] : graphs_) {
    if (g.terminal()) continue;
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
      NodeRun& n = g.nodes[i];
      if (!n.submitted || n.succeeded) continue;
      if (n.live >= config_.replicas) continue;  // replica budget spent
      if (n.attempt_count >= kMaxNodeAttempts) continue;
      // At risk when any live running attempt sits on a host predicted to
      // leave before the attempt can finish. A crashed or despawned host
      // predicts zero dwell, so its attempt is flagged immediately —
      // before the failure detector declares the worker dead.
      bool at_risk = false;
      for (const TaskId tid : n.attempts) {
        const vcloud::Task* task = cloud_.find_task(tid);
        if (task == nullptr || task->terminal()) continue;
        if (task->state != vcloud::TaskState::kRunning ||
            !task->worker.valid()) {
          continue;  // queued/migrating: the broker still holds it
        }
        const vcloud::ResourceProfile* profile =
            cloud_.worker_profile(task->worker);
        const double rate =
            profile != nullptr && profile->compute > 0.0 ? profile->compute
                                                         : 1.0;
        const double expected_remaining = task->remaining() / rate;
        if (!region) region = cloud_.region();
        const double dwell = cloud_.worker_dwell(task->worker, *region);
        if (dwell < kDwellMargin * expected_remaining) {
          at_risk = true;
          break;
        }
      }
      if (at_risk) {
        ++stats_.backups;
        if (flight_ != nullptr) {
          flight_->record(now, obs::FlightCategory::kDag, "dag.backup", g.id,
                          i);
        }
        submit_attempt(g, i, now);
      }
    }
  }
}

VehicleId DagScheduler::storm_victim(std::uint64_t tag) const {
  std::vector<const GraphRun*> live;
  for (const auto& [gid, g] : graphs_) {
    if (!g.terminal()) live.push_back(&g);
  }
  if (live.empty()) return VehicleId{};
  const GraphRun& g = *live[tag % live.size()];
  // The node with the heaviest downstream critical weight among nodes with
  // a running attempt is the current critical-path holder; ties break to
  // the smallest index, attempts to the earliest task id — deterministic.
  VehicleId victim;
  double best = -1.0;
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    const NodeRun& n = g.nodes[i];
    if (!n.submitted || n.succeeded || n.live == 0) continue;
    if (g.graph.critical_weight(i) <= best) continue;
    for (const TaskId tid : n.attempts) {
      const vcloud::Task* task = cloud_.find_task(tid);
      if (task == nullptr || task->state != vcloud::TaskState::kRunning ||
          !task->worker.valid()) {
        continue;
      }
      best = g.graph.critical_weight(i);
      victim = task->worker;
      break;
    }
  }
  return victim;
}

bool DagScheduler::all_done() const {
  for (const auto& [gid, g] : graphs_) {
    if (!g.terminal()) return false;
  }
  return true;
}

void DagScheduler::for_each_graph(
    const std::function<void(const vcloud::DagGraphView&)>& fn) const {
  for (const auto& [gid, g] : graphs_) {
    std::vector<vcloud::DagNodeStateView> nodes;
    nodes.reserve(g.nodes.size());
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
      vcloud::DagNodeStateView v;
      v.submitted = g.nodes[i].submitted;
      v.succeeded = g.nodes[i].succeeded;
      v.live_attempts = g.nodes[i].live;
      v.parents = g.graph.parents(i);
      nodes.push_back(std::move(v));
    }
    vcloud::DagGraphView view;
    view.id = g.id;
    view.terminal = g.terminal();
    view.completed = g.completed;
    view.intermediates_held = g.intermediates_held;
    view.nodes = &nodes;
    fn(view);
  }
}

}  // namespace vcl::dag
