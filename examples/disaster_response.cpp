// Disaster response: the paper's motivating scenario for dynamic v-clouds.
//
// A city runs an infrastructure-based cloud anchored to RSUs. At t=120 s an
// earthquake takes the RSUs down; the emergency controller flips the region
// into emergency mode and a dynamic (pure-V2V) cloud carries the load until
// the all-clear. The log shows the infrastructure cloud collapsing and the
// dynamic cloud continuing to complete tasks.
#include <iostream>

#include "core/emergency.h"
#include "core/system.h"
#include "util/table.h"

int main() {
  using namespace vcl;

  core::SystemConfig infra_cfg;
  infra_cfg.scenario.vehicles = 80;
  infra_cfg.scenario.seed = 21;
  infra_cfg.scenario.rsu_spacing = 500.0;
  infra_cfg.architecture = core::CloudArchitecture::kInfrastructureBased;

  core::VehicularCloudSystem system(infra_cfg);
  system.start();
  auto& scenario = system.scenario();

  // A second, dynamic cloud over the same vehicles (the fallback).
  auto membership = vcloud::largest_cluster_membership(system.clusters());
  vcloud::VehicularCloud dynamic_cloud(
      CloudId{99}, scenario.network(), membership,
      vcloud::largest_cluster_region(scenario.traffic(), system.clusters(),
                                     300.0),
      std::make_unique<vcloud::DwellAwareScheduler>(), vcloud::CloudConfig{},
      scenario.fork_rng(101));
  dynamic_cloud.attach();
  dynamic_cloud.refresh();

  core::EmergencyController emergency(scenario.network());
  emergency.add_listener([&](core::OperatingMode mode, geo::Vec2, double) {
    std::cout << "[t=" << scenario.simulator().now()
              << "s] mode switched to " << core::to_string(mode) << "\n";
  });

  vcloud::WorkloadGenerator workload({10.0, 1.0, 0.2, 90.0},
                                     scenario.fork_rng(55));
  // Feed both clouds the same steady task stream.
  scenario.simulator().schedule_every(5.0, [&] {
    system.cloud().submit(workload.next(scenario.simulator().now()));
    dynamic_cloud.submit(workload.next(scenario.simulator().now()));
  });

  std::cout << "Phase 1: normal operation (RSUs online: "
            << scenario.network().rsus().online_count() << ")\n";
  system.run_for(120.0);
  const auto infra_before = system.cloud().stats().completed;
  const auto dynamic_before = dynamic_cloud.stats().completed;

  const auto [lo, hi] = scenario.road().bounding_box();
  const geo::Vec2 center{(lo.x + hi.x) / 2, (lo.y + hi.y) / 2};
  std::cout << "\nPhase 2: earthquake — RSUs in a 2 km radius fail\n";
  emergency.declare_emergency(center, 2000.0);
  system.run_for(180.0);
  const auto infra_during = system.cloud().stats().completed - infra_before;
  const auto dynamic_during =
      dynamic_cloud.stats().completed - dynamic_before;

  std::cout << "\nPhase 3: all clear\n";
  emergency.all_clear();
  system.run_for(120.0);

  Table table("disaster response: tasks completed per phase",
              {"cloud", "normal (0-120s)", "disaster (120-300s)", "total"});
  table.add_row({"infrastructure-based", std::to_string(infra_before),
                 std::to_string(infra_during),
                 std::to_string(system.cloud().stats().completed)});
  table.add_row({"dynamic (pure V2V)", std::to_string(dynamic_before),
                 std::to_string(dynamic_during),
                 std::to_string(dynamic_cloud.stats().completed)});
  table.print(std::cout);

  std::cout << "The dynamic cloud keeps completing tasks through the outage;"
               "\nthe infrastructure cloud stalls until the all-clear —"
               "\nthe availability argument of paper §IV.A.2.\n";
  return 0;
}
