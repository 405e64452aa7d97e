// Trip generation: keeps a target vehicle population alive on the network.
//
// Vehicles spawn with Poisson arrivals at random origins, drive a shortest
// path to a random destination, and either despawn or are re-routed on
// arrival (`keep_alive`). `keep_alive` mode maintains a stable population,
// which the v-cloud experiments need for controlled density sweeps.
#pragma once

#include <vector>

#include "geo/route_search.h"
#include "mobility/traffic.h"
#include "util/rng.h"

namespace vcl::mobility {

struct TripGeneratorConfig {
  int target_population = 100;
  double arrival_rate = 2.0;  // vehicles per second while below target
  bool keep_alive = true;     // re-route vehicles on arrival
  double min_trip_links = 3;  // reject degenerate trips
  // Mix of automation levels, indexed by AutomationLevel; weights.
  std::vector<double> automation_weights = {0.05, 0.15, 0.3, 0.3, 0.15, 0.05};
};

class TripGenerator {
 public:
  TripGenerator(TrafficModel& traffic, TripGeneratorConfig config, Rng rng);

  // Spawns vehicles up to the target population immediately.
  void prefill();
  // Registers periodic arrivals plus the arrival handler with the traffic
  // model.
  void attach(sim::Simulator& sim);

  // Generates a random route of at least `min_trip_links` links starting at
  // `from` (or a random node when invalid). Empty when none found.
  [[nodiscard]] std::vector<LinkId> random_route(NodeId from = NodeId{});

  [[nodiscard]] int spawned() const { return spawned_; }

 private:
  void maybe_spawn_arrivals(double dt);
  AutomationLevel sample_automation();

  TrafficModel& traffic_;
  TripGeneratorConfig config_;
  Rng rng_;
  geo::RouteSearch routes_;  // every route this generator searches
  int spawned_ = 0;
};

}  // namespace vcl::mobility
