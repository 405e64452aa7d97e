// E23 — DAG task-graph workloads under decomposition scheduling (DESIGN.md
// §11; arXiv 2210.07337's reliability-aware replication).
//
// A stationary parking-lot cloud serves a steady stream of generated task
// graphs (chain / fork-join / diamond / layered, cycling) while a FaultPlan
// crashes workers underneath the running attempts. The SAME scenario seed
// is used for every policy at a given fault intensity, so all policies face
// the identical fault schedule AND the identical graph stream; differences
// are attributable to the replication policy alone:
//
//   none        one attempt per node; a crashed host stalls the node until
//               the failure detector fires and the cloud requeues it —
//               detection latency lands on the graph's critical path;
//   blind-k     k = 2 attempts per node up front: instant failover, but
//               every node pays 2x load whether or not it needed it — at
//               this offered load the extra copies saturate the fleet and
//               queueing, not crashes, dominates the makespan;
//   reliability-aware
//               one attempt up front; the periodic dwell scan launches a
//               backup only for hosts predicted to leave before the node
//               finishes (a crashed host predicts zero dwell, so backups
//               launch before the detector even fires) — near-blind-k
//               recovery at near-none load.
//
// Expected shape: at equal replica budget k, reliability-aware beats
// blind-k on makespan under faults (it spends replicas only where the
// dwell prediction says they pay) and beats none because its backups skip
// the detection-latency stall.
//
// Runs through the experiment engine: an exp::Sweep spans the crash-rate x
// policy grid and exp::Campaign replicates each cell (--reps N --jobs J).
// Stat cells are bit-identical for any --jobs split.
#include <iostream>

#include "core/system.h"
#include "dag/generator.h"
#include "exp/campaign.h"
#include "exp/sweep.h"
#include "util/table.h"

using namespace vcl;

namespace {

constexpr SimTime kLoadWindow = 240.0;
constexpr SimTime kGraphPeriod = 3.0;

exp::RepReport run_cell(const core::SystemConfig& cfg,
                        const std::string& out_dir) {
  core::VehicularCloudSystem system(cfg);
  system.start();

  // The graph stream rides its own forked RNG, so it is identical in every
  // cell of a replication regardless of policy or fault schedule.
  dag::DagWorkloadGenerator gen(dag::DagWorkloadConfig{},
                                system.scenario().fork_rng(78));
  dag::DagScheduler& dsched = *system.dag();
  auto& sim = system.scenario().simulator();
  sim.schedule_every(kGraphPeriod, [&] {
    if (sim.now() < kLoadWindow) dsched.submit_graph(gen.next(), sim.now());
  });

  system.run_for(kLoadWindow);
  // Drain until every graph is terminal (bounded): makespans then cover
  // every submitted graph, so a saturated policy cannot hide its backlog
  // behind the graphs it happened to finish early.
  for (int i = 0; i < 48 && !dsched.all_done(); ++i) system.run_for(20.0);

  if (!out_dir.empty() && system.telemetry() != nullptr) {
    obs::write_telemetry(*system.telemetry(), out_dir);
  }

  const dag::DagStats& s = dsched.stats();
  exp::RepReport rep;
  double crashes = 0;
  if (system.injector() != nullptr) {
    crashes = static_cast<double>(system.injector()->stats().vehicle_crashes);
  }
  rep.value("crashes", crashes);
  rep.value("graphs", static_cast<double>(s.graphs_completed));
  rep.value("unfinished",
            static_cast<double>(s.graphs_submitted - s.graphs_completed -
                                s.graphs_failed));
  rep.value("makespan", s.makespan.mean());
  rep.value("attempts", static_cast<double>(s.nodes_submitted));
  rep.value("backups", static_cast<double>(s.backups));
  rep.value("blind", static_cast<double>(s.blind_replicas));
  rep.value("transfer_mb", s.transfer_mb);
  rep.tail("node_lat").merge(s.node_latency_tail);
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Campaign campaign("bench_dag_workloads", argc, argv);

  std::cout << "E23 (DESIGN.md §11): DAG decomposition scheduling under "
               "faults\n24 parked workers, one generated graph every "
            << kGraphPeriod
            << " s for " << kLoadWindow
            << " s (shapes cycle\nchain/fork-join/diamond/layered), drained "
               "to completion; every policy\nat a given intensity faces the "
               "identical fault schedule and graph\nstream (same seed, "
               "dedicated RNG streams).\n\n";
  campaign.describe(std::cout);

  exp::Sweep<core::SystemConfig> sweep;
  auto& rate_axis = sweep.axis("crash_rate");
  for (const double rate : {0.0, 0.01, 0.02}) {
    rate_axis.point(Table::num(rate, 2), [rate](core::SystemConfig& c) {
      c.faults.horizon = kLoadWindow;
      c.faults.vehicle_crash_rate = rate;
    });
  }
  auto& policy_axis = sweep.axis("policy");
  for (const dag::DagPolicy policy :
       {dag::DagPolicy::kNone, dag::DagPolicy::kBlindK,
        dag::DagPolicy::kReliabilityAware}) {
    policy_axis.point(dag::to_string(policy),
                      [policy](core::SystemConfig& c) {
                        c.dag.policy = policy;
                      });
  }

  std::map<std::string, std::map<std::string, exp::Summary>> by_cell;
  std::vector<std::vector<exp::Cell>> rows;
  for (const auto& cell : sweep.cells()) {
    const auto summary =
        campaign.replicate(1234, [&cell](const exp::RepContext& ctx) {
          core::SystemConfig cfg;
          cfg.scenario.environment = core::Environment::kParkingLot;
          cfg.scenario.vehicles = 24;
          cfg.scenario.vehicles_parked = true;
          cfg.architecture = core::CloudArchitecture::kStationary;
          cfg.stationary_radius = 5000.0;
          // Full mitigation (the chaos-episode fixture): the policies
          // differ on top of a working recovery stack, not instead of one.
          cfg.cloud.dependability = vcloud::full_mitigation();
          cfg.dag.enabled = true;
          cfg.dag.replicas = 2;  // equal budget k for blind-k and rel-aware
          // Shared across every policy at this intensity: identical fault
          // plan and graph stream.
          cfg.scenario.seed = ctx.seed;
          if (!ctx.out_dir.empty()) {
            cfg.telemetry.tracing = true;
            cfg.telemetry.metrics = true;
          }
          return run_cell(cell.make(cfg), ctx.out_dir);
        });
    rows.push_back({exp::Cell(cell.labels[0]), exp::Cell(cell.labels[1]),
                    exp::Cell(summary.at("crashes"), 0),
                    exp::Cell(summary.at("graphs"), 0),
                    exp::Cell(summary.at("unfinished"), 0),
                    exp::Cell(summary.at("makespan"), 1),
                    exp::Cell::tail(summary.at("node_lat"), 1),
                    exp::Cell(summary.at("attempts"), 0),
                    exp::Cell(summary.at("backups"), 0),
                    exp::Cell(summary.at("blind"), 0),
                    exp::Cell(summary.at("transfer_mb"), 1)});
    by_cell[cell.label()] = summary;
  }
  campaign.emit("E23: graph makespan and replica spend by policy",
                {"crash_rate", "policy", "crashes", "graphs", "unfinished",
                 "makespan_s", "node_lat_s", "attempts", "backups",
                 "blind_copies", "transfer_mb"},
                rows);

  // Qualitative acceptance checks (printed, not asserted: this is a bench).
  const std::string high = Table::num(0.02, 2);
  const auto& none_hi = by_cell.at(high + "/none");
  const auto& blind_hi = by_cell.at(high + "/blind-k");
  const auto& rel_hi = by_cell.at(high + "/reliability-aware");
  const double none_mk = none_hi.at("makespan").mean();
  const double blind_mk = blind_hi.at("makespan").mean();
  const double rel_mk = rel_hi.at("makespan").mean();
  const double blind_attempts = blind_hi.at("attempts").mean();
  const double rel_attempts = rel_hi.at("attempts").mean();
  const bool beats_blind = rel_mk < blind_mk;
  const bool beats_none = rel_mk < none_mk;
  const bool spends_less = rel_attempts < blind_attempts;
  std::cout << "\n[" << (beats_blind ? "PASS" : "FAIL")
            << "] reliability-aware beats blind-k makespan at equal replica "
               "budget under faults ("
            << Table::num(rel_mk, 1) << " vs " << Table::num(blind_mk, 1)
            << " s)\n";
  std::cout << "[" << (beats_none ? "PASS" : "FAIL")
            << "] reliability-aware beats unreplicated makespan under faults "
               "("
            << Table::num(rel_mk, 1) << " vs " << Table::num(none_mk, 1)
            << " s)\n";
  std::cout << "[" << (spends_less ? "PASS" : "FAIL")
            << "] and it spends fewer attempts than blind-k doing it ("
            << Table::num(rel_attempts, 0) << " vs "
            << Table::num(blind_attempts, 0) << ")\n";
  std::cout << "\nShape vs arXiv 2210.07337: blind replication pays k x load "
               "for every\nnode — at realistic utilization the extra copies "
               "queue behind each\nother and the makespan is lost to "
               "contention, not crashes. Predicting\nhost departure (dwell) "
               "and replicating only the at-risk nodes keeps\nrecovery off "
               "the critical path at a fraction of the replica bill.\n";
  return campaign.finish();
}
