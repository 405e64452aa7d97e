// E2 (Fig. 4) — The three v-cloud architectures under normal operation and
// disaster.
//
// Stationary, infrastructure-based and dynamic clouds run the same task
// stream in their natural habitat for 150 s, then every RSU fails for 150 s
// (earthquake), then recovers for 100 s. Reported per phase: completion
// rate, mean latency and membership — the quantitative form of §IV.A.2's
// availability argument.
//
// Runs through the experiment engine (exp::Campaign): --reps N replicates
// every architecture with independent seeds (--jobs J in parallel) and
// reports mean ±95% CI; the default --reps 1 reproduces the historical
// single-seed output byte-for-byte.
#include <iostream>

#include "core/system.h"
#include "exp/campaign.h"
#include "util/table.h"

using namespace vcl;

namespace {

exp::RepReport run_architecture(core::CloudArchitecture arch,
                                std::uint64_t seed) {
  core::SystemConfig cfg;
  cfg.architecture = arch;
  cfg.scenario.seed = seed;
  cfg.scenario.rsu_spacing = 600.0;
  if (arch == core::CloudArchitecture::kStationary) {
    cfg.scenario.environment = core::Environment::kParkingLot;
    cfg.scenario.vehicles_parked = true;
    cfg.stationary_radius = 5000.0;
  }
  cfg.scenario.vehicles = 60;

  core::VehicularCloudSystem system(cfg);
  system.start();

  vcloud::WorkloadGenerator workload({8.0, 1.0, 0.2, 60.0},
                                     system.scenario().fork_rng(66));
  auto& sim = system.scenario().simulator();
  sim.schedule_every(2.0, [&] {
    system.cloud().submit(workload.next(sim.now()));
  });

  struct PhaseStats {
    std::size_t completed = 0;
    double members = 0;
  };
  auto run_phase = [&](double seconds) {
    const std::size_t before = system.cloud().stats().completed;
    Accumulator members;
    const int steps = static_cast<int>(seconds / 10.0);
    for (int i = 0; i < steps; ++i) {
      system.run_for(10.0);
      members.add(static_cast<double>(system.cloud().member_count()));
    }
    PhaseStats ps;
    ps.completed = system.cloud().stats().completed - before;
    ps.members = members.mean();
    return ps;
  };

  const PhaseStats normal = run_phase(150.0);
  system.scenario().network().rsus().fail_all();
  const PhaseStats disaster = run_phase(150.0);
  system.scenario().network().rsus().restore_all();
  const PhaseStats recovery = run_phase(100.0);

  exp::RepReport rep;
  rep.value("normal", static_cast<double>(normal.completed));
  rep.value("disaster", static_cast<double>(disaster.completed));
  rep.value("recovery", static_cast<double>(recovery.completed));
  rep.value("members_normal", normal.members);
  rep.value("members_disaster", disaster.members);
  rep.value("mean_latency", system.cloud().stats().latency.mean());
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Campaign campaign("bench_fig4_architectures", argc, argv);

  std::cout << "E2 (Fig. 4): stationary vs infrastructure-based vs dynamic\n"
            << "phases: normal 150 s | all RSUs fail 150 s | recovery 100 "
               "s\n\n";
  campaign.describe(std::cout);

  std::vector<std::vector<exp::Cell>> rows;
  for (const auto arch : {core::CloudArchitecture::kStationary,
                          core::CloudArchitecture::kInfrastructureBased,
                          core::CloudArchitecture::kDynamic}) {
    const auto summary =
        campaign.replicate(44, [arch](const exp::RepContext& ctx) {
          return run_architecture(arch, ctx.seed);
        });
    rows.push_back({exp::Cell(core::to_string(arch)),
                    exp::Cell(summary.at("normal"), 0),
                    exp::Cell(summary.at("disaster"), 0),
                    exp::Cell(summary.at("recovery"), 0),
                    exp::Cell(summary.at("members_normal"), 1),
                    exp::Cell(summary.at("members_disaster"), 1),
                    exp::Cell(summary.at("mean_latency"), 1)});
  }
  campaign.emit("tasks completed per phase (same 1-task/2s stream)",
                {"architecture", "normal", "disaster", "recovery",
                 "members(normal)", "members(disaster)", "mean_latency_s"},
                rows);

  std::cout
      << "Shape vs paper: the infrastructure-based cloud loses its members\n"
         "(and throughput) the moment RSUs die; the stationary cloud is\n"
         "unaffected but only exists where parked fleets do; the dynamic\n"
         "cloud's membership and completions ride through the disaster —\n"
         "\"the most promising for handling emergency responses\" (§II.C).\n";
  return campaign.finish();
}
