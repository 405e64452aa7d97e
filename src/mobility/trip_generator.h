// Trip generation: keeps a target vehicle population alive on the network.
//
// Vehicles spawn with Poisson arrivals at random origins, drive a shortest
// path to a random destination, and are re-routed from there on arrival
// (despawned only when no route is found). That keeps the population
// stable, which the v-cloud experiments need for controlled density sweeps.
#pragma once

#include <cstddef>
#include <vector>

#include "geo/route_search.h"
#include "mobility/traffic.h"
#include "util/rng.h"

namespace vcl::mobility {

struct TripGeneratorConfig {
  int target_population = 100;
  // Mix of automation levels, indexed by AutomationLevel; weights.
  std::vector<double> automation_weights = {0.05, 0.15, 0.3, 0.3, 0.15, 0.05};
};

class TripGenerator {
 public:
  // Every route has at least this many links; shorter trips are degenerate.
  static constexpr std::size_t kMinTripLinks = 3;

  TripGenerator(TrafficModel& traffic, TripGeneratorConfig config, Rng rng);

  // Spawns vehicles up to the target population immediately. The route
  // searches run ahead on the helper threads; the fleet is the one the
  // serial loop builds (DESIGN.md §4 "Prefill").
  void prefill();
  // Registers periodic arrivals plus the arrival handler with the traffic
  // model.
  void attach(sim::Simulator& sim);

  // Generates a random route of at least kMinTripLinks links starting at
  // `from` (or a random node when invalid). Empty when none found.
  [[nodiscard]] std::vector<LinkId> random_route(NodeId from = NodeId{});

  [[nodiscard]] int spawned() const { return spawned_; }

 private:
  void maybe_spawn_arrivals(double dt);
  AutomationLevel sample_automation();
  // Spawns a vehicle on `route` (non-empty) at a speed drawn from
  // [min_speed, max_speed) times its first link's limit.
  VehicleId spawn(std::vector<LinkId> route, double min_speed,
                  double max_speed);

  TrafficModel& traffic_;
  TripGeneratorConfig config_;
  Rng rng_;
  geo::RouteSearch routes_;  // every route this thread searches
  int spawned_ = 0;
};

}  // namespace vcl::mobility
