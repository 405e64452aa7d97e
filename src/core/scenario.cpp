#include "core/scenario.h"

namespace vcl::core {
namespace {

constexpr double kHighwayLength = 5000.0;  // meters
constexpr int kLotRows = 8;
constexpr int kLotCols = 8;

}  // namespace

geo::RoadNetwork Scenario::build_road(const ScenarioConfig& config) {
  switch (config.environment) {
    case Environment::kCity:
      return geo::make_manhattan_grid(config.grid_rows, config.grid_cols,
                                      config.grid_spacing);
    case Environment::kHighway:
      return geo::make_highway(kHighwayLength);
    case Environment::kParkingLot:
      return geo::make_parking_lot(kLotRows, kLotCols);
  }
  return geo::make_manhattan_grid(4, 4, 200.0);
}

Scenario::Scenario(ScenarioConfig config)
    : config_(config),
      road_(build_road(config)),
      traffic_(road_, Rng(config.seed).fork(1)),
      trips_(traffic_,
             [&config] {
               mobility::TripGeneratorConfig tg;
               tg.target_population = config.vehicles;
               tg.automation_weights = config.automation_weights;
               return tg;
             }(),
             Rng(config.seed).fork(2)),
      net_(sim_, traffic_, Rng(config.seed).fork(3)) {
  if (config_.rsu_spacing > 0.0) {
    net_.rsus().place_grid(road_, config_.rsu_spacing, config_.rsu_range);
  }
}

void Scenario::park_population() {
  Rng rng = fork_rng(4);
  for (int i = 0; i < config_.vehicles; ++i) {
    const auto link =
        LinkId{static_cast<std::uint64_t>(rng.index(road_.link_count()))};
    const double offset = rng.uniform(0.0, road_.link(link).length);
    traffic_.spawn_parked(link, offset);
  }
}

void Scenario::start() {
  if (started_) return;
  started_ = true;
  if (config_.vehicles_parked) {
    park_population();
  } else {
    trips_.prefill();
    traffic_.attach(sim_);
    trips_.attach(sim_);
  }
  net_.start_beacons(config_.beacon_period);
}

void Scenario::run_for(SimTime seconds) {
  start();
  sim_.run_until(sim_.now() + seconds);
}

}  // namespace vcl::core
