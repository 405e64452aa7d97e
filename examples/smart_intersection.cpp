// Smart intersections: virtual traffic lights run by the vehicles
// themselves (paper §III.A: "a vehicle may serve at a certain time as one
// of a group-decision-makers when crossing an intersection").
//
// The same rush-hour city runs three ways — uncontrolled, conventional
// fixed-cycle signals, and VTL (a leader elected among the approaching
// vehicles acts as the light) — and prints the fleet's speed and stopped
// time under each regime, plus how often the VTL decision role changed
// hands.
#include <iostream>

#include "core/scenario.h"
#include "core/vtl.h"
#include "mobility/intersection.h"
#include "util/table.h"

int main() {
  using namespace vcl;

  Table table("rush hour under three intersection regimes (120 vehicles, "
              "4x4 grid, 180 s)",
              {"regime", "mean_speed_m/s", "time_stopped", "decision_makers"});

  for (const std::string regime : {"uncontrolled", "fixed signals",
                                   "virtual traffic lights"}) {
    core::ScenarioConfig cfg;
    cfg.vehicles = 120;
    cfg.seed = 5;
    cfg.grid_rows = 4;
    cfg.grid_cols = 4;
    core::Scenario scenario(cfg);
    scenario.start();

    std::unique_ptr<mobility::FixedCycleController> fixed;
    std::unique_ptr<core::VtlController> vtl;
    if (regime == "fixed signals") {
      fixed = std::make_unique<mobility::FixedCycleController>(
          scenario.road(), scenario.simulator());
      scenario.traffic().set_right_of_way(
          [&f = *fixed](LinkId l, VehicleId v) { return f.can_enter(l, v); });
    } else if (regime == "virtual traffic lights") {
      vtl = std::make_unique<core::VtlController>(scenario.network());
      vtl->attach();
      scenario.traffic().set_right_of_way(
          [&v = *vtl](LinkId l, VehicleId id) { return v.can_enter(l, id); });
    }

    core::StopMeter meter(scenario.traffic());
    meter.attach(scenario.simulator());
    scenario.run_for(180.0);

    table.add_row(
        {regime, Table::num(meter.mean_speed(), 2),
         Table::num(meter.stopped_fraction() * 100.0, 1) + "%",
         vtl ? std::to_string(vtl->leader_changes()) + " leader handoffs"
             : (fixed ? "roadside hardware" : "none (unsafe)")});
  }
  table.print(std::cout);

  std::cout
      << "VTL recovers most of the uncontrolled flow without any roadside\n"
         "hardware: the vehicles at each junction elect their own decision\n"
         "maker, and the role hands off every time a leader crosses — the\n"
         "paper's dynamic role assignment, visible as a traffic light.\n";
  return 0;
}
