// DAG task-graph tests (DESIGN.md §11): graph validation (cycles named by
// their back-edge, weight/bounds errors), deterministic sealing, workload
// generator shapes, config validation against the fleet size, decomposition
// scheduling end-to-end on a parked cloud (none / blind-k /
// reliability-aware), dwell-prediction edge cases, trace reduction of a
// whole graph run, the DAG-targeted chaos storm shape, and the end-to-end
// oracle demo — the deliberately stranded-node scheduler bug is caught by
// dag-node-liveness and its fault plan shrinks to a handful of events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/chaos.h"
#include "core/system.h"
#include "dag/generator.h"
#include "dag/scheduler.h"
#include "dag/task_graph.h"
#include "fault/chaos.h"
#include "geo/road_network.h"
#include "mobility/traffic.h"
#include "obs/trace_analysis.h"
#include "vcloud/dwell.h"

namespace vcl {
namespace {

// Whether graph `id` completed, read through the oracle's view of the DAGs.
bool graph_completed(const dag::DagScheduler& dags, std::uint64_t id) {
  bool completed = false;
  dags.for_each_graph([&](const vcloud::DagGraphView& g) {
    if (g.id == id) completed = g.completed;
  });
  return completed;
}

// Source -> {left, right} -> sink, with fixed weights so derived quantities
// are exact.
dag::TaskGraph diamond_graph() {
  dag::TaskGraph g;
  const std::size_t src = g.add_node(4.0, 0.2);
  const std::size_t left = g.add_node(6.0, 0.2);
  const std::size_t right = g.add_node(2.0, 0.2);
  const std::size_t sink = g.add_node(3.0, 0.2);
  g.add_edge(src, left, 1.0);
  g.add_edge(src, right, 1.0);
  g.add_edge(left, sink, 0.5);
  g.add_edge(right, sink, 0.5);
  g.seal();
  return g;
}

// ---- graph validation -------------------------------------------------------

TEST(TaskGraphValidation, EmptyGraphIsRejected) {
  dag::TaskGraph g;
  EXPECT_NE(g.check(), "");
  EXPECT_THROW(g.seal(), std::invalid_argument);
}

TEST(TaskGraphValidation, CycleIsReportedByItsBackEdge) {
  dag::TaskGraph g;
  g.add_node(1.0);
  g.add_node(1.0);
  g.add_node(1.0);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);  // closes the cycle
  const std::string problem = g.check();
  EXPECT_NE(problem.find("back-edge"), std::string::npos) << problem;
  try {
    g.seal();
    FAIL() << "seal() accepted a cyclic graph";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("TaskGraph: "), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("back-edge"), std::string::npos);
  }
}

TEST(TaskGraphValidation, NegativeWeightsAreRejected) {
  dag::TaskGraph g;
  g.add_node(-1.0);
  EXPECT_NE(g.check(), "");

  dag::TaskGraph h;
  h.add_node(1.0);
  h.add_node(1.0);
  h.add_edge(0, 1, -0.5);
  EXPECT_NE(h.check(), "");
}

TEST(TaskGraphValidation, EdgeBoundsAndSelfLoopsAreRejected) {
  dag::TaskGraph g;
  g.add_node(1.0);
  g.add_edge(0, 7);  // `to` out of range
  EXPECT_NE(g.check(), "");

  dag::TaskGraph h;
  h.add_node(1.0);
  h.add_node(1.0);
  h.add_edge(1, 1);  // self-loop
  EXPECT_NE(h.check(), "");
}

// ---- sealing and derived quantities -----------------------------------------

TEST(TaskGraph, SealBuildsTopoOrderAndDerivedQuantities) {
  const dag::TaskGraph g = diamond_graph();
  ASSERT_TRUE(g.sealed());
  ASSERT_EQ(g.size(), 4u);

  // Kahn's algorithm, smallest-ready-index-first: the diamond's order is
  // exactly the construction order.
  const std::vector<std::size_t> expected_topo = {0, 1, 2, 3};
  EXPECT_EQ(g.topo_order(), expected_topo);

  std::vector<std::size_t> sink_parents = g.parents(3);
  std::sort(sink_parents.begin(), sink_parents.end());
  EXPECT_EQ(sink_parents, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(g.children(0).size(), 2u);
  EXPECT_TRUE(g.parents(0).empty());

  // Heaviest chain from the source: 4 + 6 + 3.
  EXPECT_DOUBLE_EQ(g.critical_weight(0), 13.0);
  EXPECT_DOUBLE_EQ(g.critical_weight(3), 3.0);
  // Dispatch input = sum of incoming transfers.
  EXPECT_DOUBLE_EQ(g.input_mb(0), 0.0);
  EXPECT_DOUBLE_EQ(g.input_mb(3), 1.0);
  EXPECT_DOUBLE_EQ(g.total_work(), 15.0);
}

TEST(TaskGraph, SealIsIdempotent) {
  dag::TaskGraph g = diamond_graph();
  g.seal();  // second seal: no throw, same graph
  EXPECT_EQ(g.topo_order().size(), 4u);
}

// ---- workload generator -----------------------------------------------------

TEST(DagWorkloadGenerator, ShapesHaveCanonicalStructure) {
  dag::DagWorkloadConfig cfg;
  cfg.chain_length = 6;
  cfg.fanout = 5;
  cfg.layers = 4;
  cfg.layer_width = 3;
  dag::DagWorkloadGenerator gen(cfg, Rng(99));

  const dag::TaskGraph chain = gen.make(dag::DagShape::kChain);
  EXPECT_EQ(chain.size(), 6u);
  EXPECT_EQ(chain.edges().size(), 5u);

  const dag::TaskGraph fj = gen.make(dag::DagShape::kForkJoin);
  EXPECT_EQ(fj.size(), 7u);           // source + 5 maps + reduce
  EXPECT_EQ(fj.edges().size(), 10u);  // fan out + fan in

  const dag::TaskGraph dia = gen.make(dag::DagShape::kDiamond);
  EXPECT_EQ(dia.size(), 4u);
  EXPECT_EQ(dia.edges().size(), 4u);

  const dag::TaskGraph layered = gen.make(dag::DagShape::kLayered);
  EXPECT_EQ(layered.size(), 12u);  // 4 layers x 3 nodes
  // Every non-source node keeps at least one parent in the previous layer.
  for (std::size_t i = 3; i < layered.size(); ++i) {
    EXPECT_GE(layered.parents(i).size(), 1u) << "node " << i;
  }
}

TEST(DagWorkloadGenerator, StreamIsDeterministicPerSeed) {
  const dag::DagWorkloadConfig cfg;
  dag::DagWorkloadGenerator a(cfg, Rng(7));
  dag::DagWorkloadGenerator b(cfg, Rng(7));
  for (int draw = 0; draw < 8; ++draw) {
    const dag::TaskGraph ga = a.next();
    const dag::TaskGraph gb = b.next();
    ASSERT_EQ(ga.size(), gb.size()) << "draw " << draw;
    ASSERT_EQ(ga.edges().size(), gb.edges().size()) << "draw " << draw;
    for (std::size_t i = 0; i < ga.size(); ++i) {
      EXPECT_DOUBLE_EQ(ga.node(i).work, gb.node(i).work);
      EXPECT_DOUBLE_EQ(ga.node(i).output_mb, gb.node(i).output_mb);
    }
    for (std::size_t i = 0; i < ga.edges().size(); ++i) {
      EXPECT_EQ(ga.edges()[i].from, gb.edges()[i].from);
      EXPECT_EQ(ga.edges()[i].to, gb.edges()[i].to);
      EXPECT_DOUBLE_EQ(ga.edges()[i].transfer_mb, gb.edges()[i].transfer_mb);
    }
  }
}

TEST(DagWorkloadGenerator, NextCyclesTheFourShapes) {
  dag::DagWorkloadConfig cfg;
  cfg.chain_length = 5;
  cfg.fanout = 3;
  dag::DagWorkloadGenerator gen(cfg, Rng(3));
  EXPECT_EQ(gen.next().size(), 5u);                          // chain
  EXPECT_EQ(gen.next().size(), 5u);                          // fork-join: 2+3
  EXPECT_EQ(gen.next().size(), 4u);                          // diamond
  EXPECT_EQ(gen.next().size(), cfg.layers * cfg.layer_width);  // layered
  EXPECT_EQ(gen.next().size(), 5u);                          // chain again
}

// ---- config validation ------------------------------------------------------

TEST(DagConfigValidation, DefaultIsValid) {
  EXPECT_EQ(dag::validate(dag::DagConfig{}), "");
}

TEST(DagConfigValidation, RejectsBadKnobs) {
  dag::DagConfig cfg;
  cfg.replicas = 0;
  EXPECT_NE(dag::validate(cfg), "");

  cfg = {};
  cfg.replicas = 7;  // more than the 6 attempts a node may ever get
  EXPECT_NE(dag::validate(cfg), "");
  cfg.replicas = 6;
  EXPECT_EQ(dag::validate(cfg), "");

  cfg = {};
  cfg.graph_deadline = -1.0;
  EXPECT_NE(dag::validate(cfg), "");
}

TEST(DagConfigValidation, ReplicationBeyondTheFleetIsRejected) {
  dag::DagConfig cfg;
  cfg.replicas = 5;
  const std::string problem = dag::validate(cfg, /*fleet_size=*/4);
  EXPECT_NE(problem.find("exceeds the fleet"), std::string::npos) << problem;
  EXPECT_EQ(dag::validate(cfg, 5), "");
  EXPECT_EQ(dag::validate(cfg, 0), "");  // fleet unknown: no fleet check
}

TEST(DagConfigValidation, SystemStartThrowsOnInvalidConfig) {
  core::SystemConfig sys;
  sys.scenario.environment = core::Environment::kParkingLot;
  sys.scenario.vehicles = 3;
  sys.scenario.vehicles_parked = true;
  sys.architecture = core::CloudArchitecture::kStationary;
  sys.dag.enabled = true;
  sys.dag.replicas = 4;  // > fleet
  core::VehicularCloudSystem system(sys);
  EXPECT_THROW(system.start(), std::invalid_argument);
}

// ---- decomposition scheduling on a parked cloud -----------------------------

core::SystemConfig parked_dag_system(std::uint64_t seed) {
  core::SystemConfig sys;
  sys.scenario.environment = core::Environment::kParkingLot;
  sys.scenario.seed = seed;
  sys.scenario.vehicles = 20;
  sys.scenario.vehicles_parked = true;
  sys.architecture = core::CloudArchitecture::kStationary;
  sys.stationary_radius = 5000.0;
  sys.cloud.dependability.detector.enabled = true;
  sys.dag.enabled = true;
  return sys;
}

TEST(DagScheduler, DiamondCompletesOnAParkedCloud) {
  core::VehicularCloudSystem system(parked_dag_system(21));
  system.start();
  system.run_for(2.0);
  auto& sim = system.scenario().simulator();

  const std::uint64_t id = system.dag()->submit_graph(diamond_graph(),
                                                      sim.now());
  system.run_for(120.0);

  EXPECT_TRUE(graph_completed(*system.dag(), id));
  EXPECT_TRUE(system.dag()->all_done());
  const dag::DagStats& stats = system.dag()->stats();
  EXPECT_EQ(stats.graphs_completed + stats.graphs_failed,
            stats.graphs_submitted);
  EXPECT_EQ(stats.graphs_submitted, 1u);
  EXPECT_EQ(stats.graphs_completed, 1u);
  EXPECT_EQ(stats.graphs_failed, 0u);
  EXPECT_EQ(stats.nodes_succeeded, 4u);
  EXPECT_GE(stats.nodes_submitted, 4u);
  // One intermediate routed per dependency edge consumed.
  EXPECT_EQ(stats.transfers, 4u);
  EXPECT_DOUBLE_EQ(stats.transfer_mb, 3.0);
  EXPECT_EQ(stats.makespan.count(), 1u);
  EXPECT_GT(stats.makespan.mean(), 0.0);
  EXPECT_EQ(stats.node_latency.count(), 4u);
}

TEST(DagScheduler, BlindKPaysUpfrontReplicasAtEqualBudget) {
  std::size_t none_submitted = 0;
  std::size_t blind_submitted = 0;
  for (const dag::DagPolicy policy :
       {dag::DagPolicy::kNone, dag::DagPolicy::kBlindK}) {
    core::SystemConfig sys = parked_dag_system(22);
    sys.dag.policy = policy;
    sys.dag.replicas = 2;
    core::VehicularCloudSystem system(sys);
    system.start();
    system.run_for(2.0);
    auto& sim = system.scenario().simulator();
    const std::uint64_t id = system.dag()->submit_graph(diamond_graph(),
                                                        sim.now());
    system.run_for(120.0);
    ASSERT_TRUE(graph_completed(*system.dag(), id))
        << dag::to_string(policy);
    const dag::DagStats& stats = system.dag()->stats();
    if (policy == dag::DagPolicy::kNone) {
      none_submitted = stats.nodes_submitted;
      EXPECT_EQ(stats.blind_replicas, 0u);
    } else {
      blind_submitted = stats.nodes_submitted;
      // One extra up-front copy per node at k = 2.
      EXPECT_EQ(stats.blind_replicas, 4u);
    }
  }
  EXPECT_EQ(none_submitted, 4u);
  EXPECT_EQ(blind_submitted, 8u);
}

TEST(DagScheduler, ReliabilityAwareBacksUpACrashedHost) {
  core::SystemConfig sys = parked_dag_system(23);
  sys.dag.policy = dag::DagPolicy::kReliabilityAware;
  sys.dag.replicas = 2;
  core::VehicularCloudSystem system(sys);
  system.start();
  system.run_for(2.0);
  auto& sim = system.scenario().simulator();

  // One long node, so the crash lands mid-execution.
  dag::TaskGraph g;
  g.add_node(60.0);
  const std::uint64_t id = system.dag()->submit_graph(std::move(g), sim.now());

  // Run until the attempt is dispatched, then find its worker.
  VehicleId worker;
  for (int i = 0; i < 100 && !worker.valid(); ++i) {
    system.run_for(0.5);
    system.cloud().for_each_task([&](const vcloud::Task& t) {
      if (t.state == vcloud::TaskState::kRunning) worker = t.worker;
    });
  }
  ASSERT_TRUE(worker.valid());

  // Crash the host the way the injector does: cloud snapshot first, then
  // the vehicle vanishes from traffic. The host is now a zombie — the
  // failure detector has not fired, the task still reads kRunning — but its
  // dwell prediction is already zero.
  system.cloud().crash_worker(worker);
  system.scenario().traffic().despawn(worker);
  EXPECT_DOUBLE_EQ(
      system.cloud().worker_dwell(worker, system.cloud().region()), 0.0);

  // The next reliability scan flags the doomed attempt and launches a
  // backup before the detector declares the worker dead.
  system.run_for(1.5);
  EXPECT_GE(system.dag()->stats().backups, 1u);

  system.run_for(200.0);
  EXPECT_TRUE(graph_completed(*system.dag(), id));
}

// ---- dwell-prediction edge cases --------------------------------------------

TEST(DwellPrediction, DespawnedVehiclePredictsZeroDwell) {
  const geo::RoadNetwork net = geo::make_manhattan_grid(4, 4, 200.0);
  mobility::TrafficModel traffic(net, Rng(1));
  const auto path = net.shortest_path(NodeId{0}, NodeId{3});
  ASSERT_TRUE(path);
  const VehicleId v = traffic.spawn(*path, 10.0);
  traffic.despawn(v);
  EXPECT_DOUBLE_EQ(
      vcloud::estimate_dwell(traffic, v, {0, 0}, 500.0,
                             vcloud::DwellMode::kKinematic),
      0.0);
  EXPECT_DOUBLE_EQ(vcloud::estimate_dwell(traffic, v, {0, 0}, 500.0,
                                          vcloud::DwellMode::kOracle),
                   0.0);
}

TEST(DwellPrediction, ParkedVehiclePredictsInfiniteDwell) {
  const geo::RoadNetwork net = geo::make_manhattan_grid(4, 4, 200.0);
  mobility::TrafficModel traffic(net, Rng(1));
  const VehicleId parked = traffic.spawn_parked(LinkId{0}, 10.0);
  EXPECT_TRUE(std::isinf(vcloud::estimate_dwell(
      traffic, parked, {0, 0}, 500.0, vcloud::DwellMode::kKinematic)));
  // kNaive assumes every known vehicle stays forever.
  EXPECT_TRUE(std::isinf(vcloud::estimate_dwell(
      traffic, parked, {0, 0}, 500.0, vcloud::DwellMode::kNaive)));
}

TEST(DwellPrediction, DepartureExactlyAtPredictedFinishIsNotAtRisk) {
  const geo::RoadNetwork net = geo::make_manhattan_grid(4, 4, 200.0);
  mobility::TrafficModel traffic(net, Rng(1));
  const auto path = net.shortest_path(NodeId{0}, NodeId{3});
  ASSERT_TRUE(path);
  const VehicleId v = traffic.spawn(*path, 10.0);

  // estimate_dwell(kKinematic) is exactly the route walk the mobility layer
  // computes — the scheduler sees the same number the traffic model does.
  const double dwell = vcloud::estimate_dwell(
      traffic, v, {0, 0}, 150.0, vcloud::DwellMode::kKinematic);
  EXPECT_DOUBLE_EQ(dwell, traffic.predict_time_to_exit(v, {0, 0}, 150.0));
  ASSERT_TRUE(std::isfinite(dwell));
  ASSERT_GT(dwell, 0.0);

  // The risk predicate is strict: a host predicted to depart exactly at the
  // attempt's predicted finish (margin 1.0, remaining == dwell) is NOT
  // flagged; any margin above 1.0 flags it.
  const double expected_remaining = dwell;
  EXPECT_FALSE(dwell < 1.0 * expected_remaining);
  EXPECT_TRUE(dwell < 1.25 * expected_remaining);
}

// ---- trace reduction of a whole graph run -----------------------------------

TEST(DagTrace, ReductionRecoversGraphCriticalPathAndPartition) {
  core::SystemConfig sys = parked_dag_system(31);
  sys.telemetry.tracing = true;
  core::VehicularCloudSystem system(sys);
  system.start();
  system.run_for(2.0);
  auto& sim = system.scenario().simulator();
  const std::uint64_t id = system.dag()->submit_graph(diamond_graph(),
                                                      sim.now());
  system.run_for(120.0);
  ASSERT_TRUE(graph_completed(*system.dag(), id));

  std::stringstream buf;
  ASSERT_NE(system.telemetry(), nullptr);
  system.telemetry()->trace.write_jsonl(buf);

  std::vector<obs::ParsedEvent> events;
  obs::TraceMeta meta;
  std::string error;
  ASSERT_TRUE(obs::parse_trace_jsonl(buf, events, meta, &error)) << error;
  ASSERT_TRUE(meta.complete());

  const obs::TraceAnalysis analysis(events);
  ASSERT_EQ(analysis.dags().size(), 1u);
  const obs::DagRunBreakdown& run = analysis.dags()[0];
  EXPECT_TRUE(run.closed);
  EXPECT_EQ(run.outcome, "completed");
  EXPECT_DOUBLE_EQ(run.graph, static_cast<double>(id));
  EXPECT_EQ(run.nodes_declared, 4u);
  ASSERT_EQ(run.nodes.size(), 4u);
  for (const obs::DagNodeBreakdown& node : run.nodes) {
    EXPECT_EQ(node.outcome, "completed") << "node " << node.node;
    EXPECT_GE(node.attempts, 1);
    EXPECT_GT(node.end_to_end(), 0.0);
  }
  EXPECT_EQ(run.edges.size(), 4u);
  // The measured critical path of a diamond is source -> one branch -> sink.
  ASSERT_EQ(run.critical_path.size(), 3u);
  EXPECT_EQ(run.critical_path.front(), 0u);
  EXPECT_EQ(run.critical_path.back(), 3u);
  EXPECT_GT(run.critical_len, 0.0);
  EXPECT_GT(run.makespan(), 0.0);
  // The leg-partition invariant vcl_traceview --dag asserts: every
  // completed node's legs partition its end-to-end latency exactly.
  EXPECT_LE(run.partition_max_dev, 1e-6);

  // The per-run report renders without tripping anything.
  std::ostringstream report;
  analysis.write_dag_report(report, meta);
  EXPECT_NE(report.str().find("critical path"), std::string::npos);
}

// ---- oracle -----------------------------------------------------------------

TEST(DagOracle, CleanRunKeepsTheOracleQuiet) {
  core::SystemConfig sys = parked_dag_system(41);
  sys.invariant_oracle = true;
  sys.dag.policy = dag::DagPolicy::kReliabilityAware;
  core::VehicularCloudSystem system(sys);
  system.start();
  system.run_for(2.0);
  auto& sim = system.scenario().simulator();

  dag::DagWorkloadGenerator gen(dag::DagWorkloadConfig{},
                                system.scenario().fork_rng(78));
  for (int i = 0; i < 4; ++i) {
    system.dag()->submit_graph(gen.next(), sim.now());
    system.run_for(30.0);
  }
  system.run_for(200.0);

  ASSERT_NE(system.oracle(), nullptr);
  EXPECT_TRUE(system.oracle()->ok())
      << system.oracle()->violations()[0].to_string();
  EXPECT_GT(system.oracle()->checks_run(), 0u);
  EXPECT_GT(system.dag()->stats().graphs_completed, 0u);
}

TEST(DagOracle, DoubleSuccessCommitFiresTerminalOnce) {
  vcloud::InvariantOracle oracle(5);
  oracle.on_dag_node_terminal(/*graph=*/1, /*node=*/0, 1.0);
  EXPECT_TRUE(oracle.ok());
  oracle.on_dag_node_terminal(1, 0, 2.0);
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.violations()[0].invariant, "dag-terminal-once");
}

// ---- DAG-targeted storm shape -----------------------------------------------

fault::ChaosConfig dag_storm_config() {
  fault::ChaosConfig cfg;
  cfg.base.horizon = 200.0;
  cfg.storms.dag_rate = 0.05;
  return cfg;
}

TEST(ChaosPlanner, DagStormCrashesShareATagAndSpanTheWindow) {
  const fault::ChaosPlanner planner(dag_storm_config());
  const fault::FaultPlan plan = planner.plan(5);
  ASSERT_FALSE(plan.empty());

  std::map<std::uint64_t, std::vector<double>> by_tag;
  for (const fault::FaultEvent& e : plan) {
    if (e.kind == fault::FaultKind::kVehicleCrash) {
      EXPECT_NE(e.dag_tag, 0u);  // this config only emits dag storms
      by_tag[e.dag_tag].push_back(e.at);
    }
  }
  ASSERT_FALSE(by_tag.empty());
  for (const auto& [tag, times] : by_tag) {
    ASSERT_EQ(times.size(), 2u) << "tag " << tag;
    // Crashes spread across the 6 s storm window: t, t + w/2.
    EXPECT_NEAR(times.back() - times.front(), 6.0 / 2.0, 1e-9);
  }

  // Deterministic per seed.
  const fault::FaultPlan again = planner.plan(5);
  ASSERT_EQ(plan.size(), again.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].at, again[i].at);
    EXPECT_EQ(plan[i].dag_tag, again[i].dag_tag);
  }
}

TEST(ChaosPlanner, DagTagRoundTripsThroughJsonl) {
  const fault::ChaosPlanner planner(dag_storm_config());
  const fault::FaultPlan plan = planner.plan(9);
  ASSERT_FALSE(plan.empty());

  std::stringstream buf;
  fault::FaultPlanMeta meta;
  meta.seed = 9;
  fault::write_fault_plan_jsonl(plan, meta, buf);

  fault::FaultPlan parsed;
  fault::FaultPlanMeta parsed_meta;
  std::string error;
  ASSERT_TRUE(fault::parse_fault_plan_jsonl(buf, parsed, parsed_meta, &error))
      << error;
  ASSERT_EQ(parsed.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(parsed[i].kind, plan[i].kind);
    EXPECT_EQ(parsed[i].at, plan[i].at);
    EXPECT_EQ(parsed[i].dag_tag, plan[i].dag_tag);
  }
}

TEST(ChaosConfigValidation, DagStormKnobsAreChecked) {
  fault::ChaosConfig cfg = dag_storm_config();
  cfg.storms.dag_rate = -0.1;
  EXPECT_EQ(fault::validate(cfg), "dag_rate is negative");

  // DAG storms install no blackout, so they need no blackout box.
  EXPECT_EQ(fault::validate(dag_storm_config()), "");
}

// ---- end-to-end: chaos episodes and the seeded scheduler bug ----------------

core::ChaosScenarioConfig short_dag_episode(std::uint64_t seed) {
  core::ChaosScenarioConfig cfg;
  cfg.seed = seed;
  cfg.vehicles = 20;
  cfg.duration = 40.0;
  cfg.drain = 20.0;
  cfg.dag = true;
  return cfg;
}

TEST(ChaosDag, ShortSoakIsCleanAndRunsGraphs) {
  std::size_t graphs = 0;
  std::size_t nodes = 0;
  std::size_t checks = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const core::ChaosEpisode episode =
        core::run_chaos_episode(short_dag_episode(seed));
    EXPECT_TRUE(episode.ok())
        << "seed " << seed << ": "
        << (episode.violations.empty() ? std::string("?")
                                       : episode.violations[0].to_string());
    graphs += episode.dag_graphs_submitted;
    nodes += episode.dag_nodes_succeeded;
    checks += episode.checks_run;
  }
  EXPECT_GT(graphs, 0u);  // the episodes really ran graph workloads
  EXPECT_GT(nodes, 0u);
  EXPECT_GT(checks, 0u);  // and the oracle really scanned them
}

TEST(ChaosDag, EpisodeIsDeterministic) {
  const core::ChaosScenarioConfig cfg = short_dag_episode(4);
  const core::ChaosEpisode a = core::run_chaos_episode(cfg);
  const core::ChaosEpisode b = core::run_chaos_episode(cfg);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.dag_graphs_submitted, b.dag_graphs_submitted);
  EXPECT_EQ(a.dag_graphs_completed, b.dag_graphs_completed);
  EXPECT_EQ(a.dag_graphs_failed, b.dag_graphs_failed);
  EXPECT_EQ(a.dag_nodes_succeeded, b.dag_nodes_succeeded);
  EXPECT_EQ(a.dag_backups, b.dag_backups);
}

TEST(ChaosDag, SeededSchedulerBugIsCaughtAndShrinksSmall) {
  // Scan a few seeds for an episode where the armed stranded-node bug
  // leaves a live graph with a dead node (any graph pushed past its
  // deadline suffices, so crank the fault intensity).
  core::ChaosScenarioConfig bad_cfg;
  core::ChaosEpisode bad;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 10 && !found; ++seed) {
    core::ChaosScenarioConfig cfg = short_dag_episode(seed);
    cfg.seeded_bug = vcloud::SeededBug::kFailedResubmit;
    cfg.intensity = 3.0;
    const core::ChaosEpisode episode = core::run_chaos_episode(cfg);
    if (!episode.ok()) {
      bad_cfg = cfg;
      bad = episode;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed in 1..10 triggered the armed scheduler bug";

  // The strand is reported as the dag-node-liveness invariant.
  const bool liveness_fired = std::any_of(
      bad.violations.begin(), bad.violations.end(),
      [](const vcloud::InvariantViolation& v) {
        return v.invariant == "dag-node-liveness";
      });
  EXPECT_TRUE(liveness_fired)
      << "first stored violation: " << bad.violations[0].to_string();

  // The schedule shrinks to a small core: stranding one node needs only
  // the few crashes that push one graph past its deadline.
  const fault::FaultPlan minimal = fault::shrink_fault_plan(
      bad.plan, [&](const fault::FaultPlan& candidate) {
        return !core::run_chaos_episode(bad_cfg, candidate).ok();
      });
  EXPECT_LE(minimal.size(), 6u);
  ASSERT_FALSE(core::run_chaos_episode(bad_cfg, minimal).ok());

  // Disarm the bug and replay the same minimal schedule: the healthy
  // scheduler resubmits (or fails the graph cleanly) and stays invariant-
  // clean.
  core::ChaosScenarioConfig fixed = bad_cfg;
  fixed.seeded_bug = vcloud::SeededBug::kNone;
  EXPECT_TRUE(core::run_chaos_episode(fixed, minimal).ok());
}

TEST(ChaosDag, ReproFileCarriesDagFlags) {
  core::ChaosScenarioConfig cfg = short_dag_episode(3);
  cfg.seeded_bug = vcloud::SeededBug::kFailedResubmit;
  const fault::FaultPlan plan;  // flags matter here, not events

  std::stringstream buf;
  core::write_chaos_repro(cfg, plan, buf);
  core::ChaosScenarioConfig loaded;
  fault::FaultPlan loaded_plan;
  std::string error;
  ASSERT_TRUE(core::load_chaos_repro(buf, loaded, loaded_plan, &error))
      << error;
  EXPECT_TRUE(loaded.dag);
  EXPECT_EQ(loaded.seeded_bug, vcloud::SeededBug::kFailedResubmit);
  EXPECT_EQ(loaded.seed, cfg.seed);
}

}  // namespace
}  // namespace vcl
