// E6 — Routing protocol comparison (§IV.A.1's survey, measured).
//
// Flooding, greedy-geographic, quality-weighted greedy, MoZo (moving
// zones) and CBLTR route the same random unicast workload across density
// and environment sweeps; a disconnected-islands scenario adds the
// bus-trajectory ferry [36]. Reported: delivery ratio, mean end-to-end
// delay, transmissions per message (overhead), and mean hops.
#include <iostream>
#include <memory>

#include "core/scenario.h"
#include "routing/bus_ferry.h"
#include "routing/cbltr.h"
#include "routing/flooding.h"
#include "routing/greedy_geo.h"
#include "routing/mozo_routing.h"
#include "routing/quality_greedy.h"
#include "obs/bench_output.h"
#include "util/table.h"

using namespace vcl;

namespace {

struct RunResult {
  double delivery = 0;
  double delay = 0;
  double overhead = 0;
  double hops = 0;
};

RunResult run_protocol(const std::string& protocol, core::Environment env,
                       int vehicles, std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.environment = env;
  cfg.vehicles = vehicles;
  cfg.seed = seed;
  cfg.grid_rows = 5;
  cfg.grid_cols = 5;
  cfg.grid_spacing = 250.0;
  core::Scenario scenario(cfg);
  scenario.start();
  scenario.run_for(5.0);  // let traffic settle and tables fill

  std::unique_ptr<cluster::MovingZone> zones;
  std::unique_ptr<routing::Router> router;
  if (protocol == "flooding") {
    router = std::make_unique<routing::Flooding>(scenario.network());
  } else if (protocol == "greedy_geo") {
    router = std::make_unique<routing::GreedyGeo>(scenario.network());
  } else if (protocol == "quality_greedy") {
    router = std::make_unique<routing::QualityGreedy>(scenario.network());
  } else if (protocol == "mozo") {
    zones = std::make_unique<cluster::MovingZone>(scenario.network());
    zones->attach();
    zones->update();
    router = std::make_unique<routing::MozoRouting>(scenario.network(), *zones);
  } else {
    router = std::make_unique<routing::Cbltr>(scenario.network());
  }
  router->attach();
  scenario.network().refresh();

  // Random unicast pairs: 4 messages/s for 40 s.
  Rng pick(seed ^ 0xfeed);
  scenario.simulator().schedule_every(0.25, [&] {
    std::vector<VehicleId> ids;
    for (const auto& [vid, v] : scenario.traffic().vehicles()) {
      ids.push_back(v.id);
    }
    if (ids.size() < 2) return;
    const VehicleId src = pick.pick(ids);
    const VehicleId dst = pick.pick(ids);
    if (src == dst) return;
    router->originate(src, dst);
  });
  scenario.run_for(40.0);
  scenario.run_for(10.0);  // drain in-flight messages

  RunResult r;
  r.delivery = router->metrics().delivery_ratio();
  r.delay = router->metrics().delay().mean();
  r.overhead = router->metrics().overhead();
  r.hops = router->metrics().hops().mean();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_routing_protocols", argc, argv);

  std::cout << "E6: routing protocols — delivery / delay / overhead\n"
            << "160 random unicasts over 40 s per cell; city grid and "
               "highway\n\n";

  const std::vector<std::string> protocols = {
      "flooding", "greedy_geo", "quality_greedy", "mozo", "cbltr"};

  for (const auto env :
       {core::Environment::kCity, core::Environment::kHighway}) {
    const char* env_name =
        env == core::Environment::kCity ? "city grid" : "highway";
    Table table(std::string("E6 (") + env_name + ")",
                {"protocol", "vehicles", "delivery", "delay_ms", "overhead",
                 "hops"});
    for (const int vehicles : {40, 100}) {
      for (const std::string& protocol : protocols) {
        const RunResult r = run_protocol(protocol, env, vehicles, 1234);
        table.add_row({protocol, std::to_string(vehicles),
                       Table::num(r.delivery, 3),
                       Table::num(r.delay * 1000.0, 1),
                       Table::num(r.overhead, 1), Table::num(r.hops, 1)});
      }
    }
    reporter.emit(table);
  }

  // ---- Disconnected-islands scenario: bus-trajectory ferrying [36] -----------
  {
    Table table("E6 (sparse islands: 2 clusters 2 km apart + 1 bus line)",
                {"protocol", "delivery", "mean_delay_s"});
    auto run_island = [&](const std::string& protocol) {
      geo::RoadNetwork road = geo::make_manhattan_grid(2, 8, 300.0);
      sim::Simulator sim;
      mobility::TrafficModel traffic(road, Rng(71));
      net::Network net(sim, traffic, Rng(72));
      std::vector<VehicleId> west, east;
      for (double off : {0.0, 60.0, 120.0}) {
        west.push_back(traffic.spawn_parked(LinkId{0}, off));
      }
      LinkId east_link;
      for (const auto& l : road.links()) {
        const auto p = road.position_on_link(l.id, 0.0);
        if (p.x >= 1800 && p.y < 10 && road.link_direction(l.id).x > 0.9) {
          east_link = l.id;
        }
      }
      for (double off : {150.0, 210.0, 270.0}) {
        east.push_back(traffic.spawn_parked(east_link, off));
      }
      routing::BusRegistry registry;
      const auto loop =
          routing::build_loop_route(road, {NodeId{0}, NodeId{7}}, 40);
      const auto bus = traffic.spawn(
          loop, 14.0, mobility::AutomationLevel::kHighAutomation, 1.0);
      registry.register_bus(bus, loop);
      traffic.attach(sim);
      net.start_beacons(0.5);

      std::unique_ptr<routing::Router> router;
      if (protocol == "bus_ferry") {
        router = std::make_unique<routing::BusFerryRouting>(net, registry);
      } else {
        router = std::make_unique<routing::GreedyGeo>(net);
      }
      router->attach();
      net.refresh();
      for (std::size_t i = 0; i < west.size(); ++i) {
        router->originate(west[i], east[i]);
        router->originate(east[i], west[i]);
      }
      sim.run_until(600.0);
      table.add_row({protocol,
                     Table::num(router->metrics().delivery_ratio(), 2),
                     Table::num(router->metrics().delay().mean(), 1)});
    };
    run_island("greedy_geo");
    run_island("bus_ferry");
    reporter.emit(table);
  }

  std::cout
      << "Shape vs the surveyed literature: flooding buys delivery with an\n"
         "order-of-magnitude overhead; greedy-geo is cheap but bleeds on\n"
         "lossy max-progress hops; quality-greedy (progress x link quality,\n"
         "motivated by ablation E16) recovers near-flooding delivery at the\n"
         "lowest unicast overhead; MoZo adds zone structure; CBLTR's\n"
         "lifetime-aware next hops help most at high relative speeds\n"
         "(highway). Sparse-scene nuance: flooding has no carry-and-forward\n"
         "recovery, so every store-carry protocol beats it on a thin\n"
         "highway. And when the network is truly partitioned, only the\n"
         "bus-trajectory ferry [36] crosses — at minutes of delay, the\n"
         "honest price of delay-tolerant delivery.\n";
  return reporter.finish();
}
