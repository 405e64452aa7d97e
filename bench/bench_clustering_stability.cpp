// E7 — Cluster stability across election protocols (§IV.A.1).
//
// Speed-based (MOBIC-style), passive multi-hop (PMC), fuzzy-logic and
// moving-zone clustering run over identical traffic; the tracker reports
// cluster-head lifetime, member re-affiliation rate and cluster shape.
#include <iostream>
#include <memory>

#include "cluster/fuzzy_clustering.h"
#include "cluster/moving_zone.h"
#include "cluster/passive_clustering.h"
#include "cluster/speed_clustering.h"
#include "cluster/stability.h"
#include "core/scenario.h"
#include "obs/bench_output.h"
#include "util/table.h"

using namespace vcl;

namespace {

std::unique_ptr<cluster::ClusterManager> make_manager(const std::string& name,
                                                      net::Network& net) {
  if (name == "speed") return std::make_unique<cluster::SpeedClustering>(net);
  if (name == "pmc") return std::make_unique<cluster::PassiveClustering>(net);
  if (name == "fuzzy") return std::make_unique<cluster::FuzzyClustering>(net);
  return std::make_unique<cluster::MovingZone>(net);
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_clustering_stability", argc, argv);

  std::cout << "E7: clustering stability (120 s of traffic, 1 Hz rounds)\n\n";

  struct Regime {
    const char* label;
    core::Environment env;
    int vehicles;
  };
  const std::vector<Regime> regimes = {
      {"city 60 veh", core::Environment::kCity, 60},
      {"city 120 veh", core::Environment::kCity, 120},
      {"highway 60 veh", core::Environment::kHighway, 60},
  };

  for (const Regime& regime : regimes) {
    Table table(std::string("E7 (") + regime.label + ")",
                {"protocol", "ch_lifetime_s", "reaffiliation", "clusters",
                 "mean_size"});
    for (const std::string protocol : {"speed", "pmc", "fuzzy", "mozo"}) {
      core::ScenarioConfig cfg;
      cfg.environment = regime.env;
      cfg.vehicles = regime.vehicles;
      cfg.seed = 77;
      core::Scenario scenario(cfg);
      scenario.start();
      scenario.run_for(5.0);

      auto manager = make_manager(protocol, scenario.network());
      cluster::StabilityTracker tracker(*manager);
      for (int round = 0; round < 120; ++round) {
        scenario.run_for(1.0);
        manager->update();
        tracker.observe(scenario.simulator().now());
      }
      table.add_row({protocol, Table::num(tracker.head_lifetime().mean(), 1),
                     Table::num(tracker.reaffiliation_rate(), 3),
                     Table::num(tracker.cluster_count().mean(), 1),
                     Table::num(tracker.cluster_size().mean(), 1)});
    }
    reporter.emit(table);
  }

  std::cout
      << "Shape vs the surveyed papers: plain speed-based election churns\n"
         "heads fastest; PMC's passive neighbor-following and the fuzzy\n"
         "blend lengthen head tenure; moving zones trade more, smaller\n"
         "clusters for the longest-lived captains on the highway where\n"
         "velocity grouping is cleanest.\n";
  return reporter.finish();
}
