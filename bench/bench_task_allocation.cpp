// E8 — Task allocation: dwell-time estimation and the handover/drop
// trade-off (§III.A, the paper's explicit open problem).
//
// Part 1: scheduler x dwell-estimator ablation. Random and greedy ignore
// mobility; dwell-aware uses naive / kinematic / oracle dwell estimates.
// Part 2: handover on/off — what migrating encrypted checkpoints saves
// versus dropping and recomputing.
#include <iostream>

#include "core/system.h"
#include "obs/bench_output.h"
#include "util/table.h"

using namespace vcl;

namespace {

struct RunStats {
  double completion = 0;
  double latency = 0;
  double wasted = 0;
  std::size_t migrations = 0;
  std::size_t reallocations = 0;
};

RunStats run(core::SchedulerKind scheduler, vcloud::DwellMode dwell,
             bool handover, std::uint64_t seed) {
  core::SystemConfig cfg;
  cfg.scenario.vehicles = 60;
  cfg.scenario.seed = seed;
  cfg.architecture = core::CloudArchitecture::kDynamic;
  cfg.scheduler = scheduler;
  cfg.cloud.dwell_mode = dwell;
  cfg.cloud.handover.enabled = handover;
  core::VehicularCloudSystem system(cfg);
  system.start();

  vcloud::WorkloadGenerator workload({25.0, 2.0, 0.3, 120.0},
                                     system.scenario().fork_rng(5));
  auto& sim = system.scenario().simulator();
  sim.schedule_every(2.5, [&] {
    system.cloud().submit(workload.next(sim.now()));
  });
  system.run_for(240.0);

  const auto& st = system.cloud().stats();
  RunStats out;
  out.completion = st.submitted ? static_cast<double>(st.completed) /
                                      static_cast<double>(st.submitted)
                                : 0;
  out.latency = st.latency.mean();
  out.wasted = st.wasted_work;
  out.migrations = st.migrations;
  out.reallocations = st.reallocations;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_task_allocation", argc, argv);

  std::cout << "E8: task allocation in a dynamic v-cloud (240 s, 60 "
               "vehicles, long tasks)\n\n";

  Table sched_table("scheduler x dwell-estimator (handover ON)",
                    {"scheduler", "dwell_mode", "completion", "latency_s",
                     "migrations"});
  struct Cell {
    core::SchedulerKind k;
    vcloud::DwellMode d;
    const char* label;
  };
  const std::vector<Cell> cells = {
      {core::SchedulerKind::kRandom, vcloud::DwellMode::kKinematic, "random"},
      {core::SchedulerKind::kGreedy, vcloud::DwellMode::kKinematic, "greedy"},
      {core::SchedulerKind::kDwellAware, vcloud::DwellMode::kNaive,
       "dwell_aware"},
      {core::SchedulerKind::kDwellAware, vcloud::DwellMode::kKinematic,
       "dwell_aware"},
      {core::SchedulerKind::kDwellAware, vcloud::DwellMode::kOracle,
       "dwell_aware"},
  };
  for (const Cell& cell : cells) {
    const RunStats s = run(cell.k, cell.d, true, 99);
    sched_table.add_row({cell.label, vcloud::to_string(cell.d),
                         Table::num(s.completion, 3),
                         Table::num(s.latency, 1),
                         std::to_string(s.migrations)});
  }
  reporter.emit(sched_table);

  Table handover_table("handover vs drop (dwell-aware/kinematic)",
                       {"policy", "completion", "latency_s", "wasted_work",
                        "migrations", "reallocations"});
  for (const bool handover : {true, false}) {
    const RunStats s = run(core::SchedulerKind::kDwellAware,
                           vcloud::DwellMode::kKinematic, handover, 99);
    handover_table.add_row({handover ? "handover (encrypted checkpoint)"
                                     : "drop & recompute",
                            Table::num(s.completion, 3),
                            Table::num(s.latency, 1), Table::num(s.wasted, 1),
                            std::to_string(s.migrations),
                            std::to_string(s.reallocations)});
  }
  reporter.emit(handover_table);

  std::cout
      << "Shape vs §III.A: mobility-blind scheduling hands long tasks to\n"
         "short-stay vehicles (more interruptions); kinematic dwell\n"
         "estimates close most of the gap to the oracle. Handover preserves\n"
         "progress — wasted work collapses versus drop-and-recompute, at\n"
         "the price of checkpoint transfer latency.\n";
  return reporter.finish();
}
