// Scenario: one self-contained simulated world.
//
// Owns the simulator, road network, traffic, trip generation and network
// fabric in construction order, wired and started with one call — the
// common harness every example, test and bench builds on.
#pragma once

#include <memory>

#include "mobility/trip_generator.h"
#include "net/network.h"

namespace vcl::core {

enum class Environment : std::uint8_t { kCity, kHighway, kParkingLot };

struct ScenarioConfig {
  Environment environment = Environment::kCity;
  std::uint64_t seed = 42;

  // City grid. The highway is 5 km long and the parking lot has 8 x 8
  // stalls in every scenario.
  int grid_rows = 6;
  int grid_cols = 6;
  double grid_spacing = 200.0;

  int vehicles = 100;
  bool vehicles_parked = false;  // park the population (stationary clouds)
  // Automation-level mix, indexed by SAE level 0..5 (normalized weights).
  std::vector<double> automation_weights = {0.05, 0.15, 0.3, 0.3, 0.15, 0.05};

  SimTime beacon_period = 1.0;
  // RSU deployment: grid spacing in meters; 0 = no infrastructure.
  double rsu_spacing = 0.0;
  double rsu_range = 500.0;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);

  // Prefills traffic and attaches the periodic activities. Idempotent.
  void start();
  // Convenience: run the simulation forward `seconds`.
  void run_for(SimTime seconds);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const geo::RoadNetwork& road() const { return road_; }
  [[nodiscard]] mobility::TrafficModel& traffic() { return traffic_; }
  [[nodiscard]] mobility::TripGenerator& trips() { return trips_; }
  [[nodiscard]] net::Network& network() { return net_; }
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] Rng fork_rng(std::uint64_t salt) const {
    return Rng(config_.seed).fork(salt);
  }

 private:
  static geo::RoadNetwork build_road(const ScenarioConfig& config);
  void park_population();

  ScenarioConfig config_;
  sim::Simulator sim_;
  geo::RoadNetwork road_;
  mobility::TrafficModel traffic_;
  mobility::TripGenerator trips_;
  net::Network net_;
  bool started_ = false;
};

}  // namespace vcl::core
