// E5 (Fig. 1) — On-board equipment scaling into pooled v-cloud capability.
//
// Fig. 1 argues that higher automation levels carry richer equipment and
// raise both the opportunity (resources to pool) and the stakes
// (coordination/security requirements). Measured here: the aggregate
// compute/storage/sensing a dynamic v-cloud actually pools, as a function
// of vehicle density and of the fleet's automation mix.
//
// Runs through the experiment engine (exp::Campaign): --reps N replicates
// every cell with independent seeds (--jobs J in parallel) and reports
// mean ±95% CI; the default --reps 1 reproduces the historical single-seed
// output byte-for-byte.
#include <iostream>

#include "core/system.h"
#include "exp/campaign.h"
#include "util/table.h"

using namespace vcl;

namespace {

struct MixSpec {
  const char* label;
  std::vector<double> weights;  // per automation level 0..5
};

}  // namespace

int main(int argc, char** argv) {
  exp::Campaign campaign("bench_fig1_resource_pool", argc, argv);

  std::cout << "E5 (Fig. 1): pooled v-cloud resources vs density and "
               "automation mix\n\n";
  campaign.describe(std::cout);

  const std::vector<MixSpec> mixes = {
      {"today (mostly L0-L2)", {0.4, 0.3, 0.2, 0.08, 0.02, 0.0}},
      {"transition (L2-L4)", {0.05, 0.15, 0.3, 0.3, 0.15, 0.05}},
      {"autonomous era (L4-L5)", {0.0, 0.0, 0.05, 0.15, 0.4, 0.4}},
  };

  std::vector<std::vector<exp::Cell>> rows;
  for (const MixSpec& mix : mixes) {
    for (const int vehicles : {40, 80, 160}) {
      const auto summary =
          campaign.replicate(5, [&](const exp::RepContext& ctx) {
            core::SystemConfig cfg;
            cfg.scenario.grid_rows = 6;
            cfg.scenario.grid_cols = 6;
            cfg.scenario.automation_weights = mix.weights;
            cfg.scenario.vehicles = vehicles;
            cfg.scenario.seed = ctx.seed;
            core::VehicularCloudSystem system(cfg);
            system.start();
            // Sample the pool every 10 s over 2 minutes.
            Accumulator members, compute, storage, sensors;
            for (int s = 0; s < 12; ++s) {
              system.run_for(10.0);
              const auto pool = system.cloud().pool();
              members.add(static_cast<double>(pool.members));
              compute.add(pool.compute);
              storage.add(pool.storage_mb / 1024.0);
              sensors.add(static_cast<double>(pool.sensor_count));
            }
            exp::RepReport rep;
            rep.value("members", members.mean());
            rep.value("compute", compute.mean());
            rep.value("storage", storage.mean());
            rep.value("sensors", sensors.mean());
            return rep;
          });
      rows.push_back({exp::Cell(mix.label),
                      exp::Cell(std::to_string(vehicles)),
                      exp::Cell(summary.at("members"), 1),
                      exp::Cell(summary.at("compute"), 1),
                      exp::Cell(summary.at("storage"), 1),
                      exp::Cell(summary.at("sensors"), 0)});
    }
  }
  campaign.emit("pooled resources of the largest dynamic cloud (120 s mean)",
                {"mix", "vehicles", "members", "compute_u/s", "storage_GB",
                 "sensors"},
                rows);
  return campaign.finish();
}
