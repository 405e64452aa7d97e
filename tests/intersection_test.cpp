// Intersection control: fixed-cycle signals and virtual traffic lights.
#include <gtest/gtest.h>

#include "core/scenario.h"
#include "core/vtl.h"
#include "mobility/intersection.h"

namespace vcl {
namespace {

using mobility::ApproachGroup;

TEST(ApproachGroupTest, ClassifiesByDominantAxis) {
  geo::RoadNetwork net;
  const auto a = net.add_node({0, 0});
  const auto b = net.add_node({100, 0});
  const auto c = net.add_node({0, 100});
  const auto ew = net.add_link(a, b, 10.0);
  const auto ns = net.add_link(a, c, 10.0);
  EXPECT_EQ(mobility::approach_group(net, ew), ApproachGroup::kEastWest);
  EXPECT_EQ(mobility::approach_group(net, ns), ApproachGroup::kNorthSouth);
}

TEST(IntersectionMapTest, OnlyRealIntersectionsSignalized) {
  // A 3x3 grid: the center node has 4 incoming links; corners have 2.
  const auto net = geo::make_manhattan_grid(3, 3, 100.0);
  const mobility::IntersectionMap map(net);
  EXPECT_TRUE(map.is_signalized(NodeId{4}));   // center
  EXPECT_FALSE(map.is_signalized(NodeId{0}));  // corner
  EXPECT_FALSE(map.signalized().empty());
}

TEST(FixedCycle, AlternatesGroups) {
  const auto net = geo::make_manhattan_grid(3, 3, 100.0);
  sim::Simulator sim;
  mobility::FixedCycleController ctrl(net, sim);
  // Find an EW link into the center node.
  LinkId ew_link, ns_link;
  for (const auto& l : net.links()) {
    if (!(l.to == NodeId{4})) continue;
    if (mobility::approach_group(net, l.id) == ApproachGroup::kEastWest) {
      ew_link = l.id;
    } else {
      ns_link = l.id;
    }
  }
  ASSERT_TRUE(ew_link.valid());
  ASSERT_TRUE(ns_link.valid());
  // At any instant exactly one of the groups has green.
  bool saw_ew = false;
  bool saw_ns = false;
  for (double t = 0.5; t < 40.0; t += 5.0) {
    sim.run_until(t);
    const bool ew = ctrl.can_enter(ew_link, VehicleId{1});
    const bool ns = ctrl.can_enter(ns_link, VehicleId{1});
    EXPECT_NE(ew, ns) << "both groups green/red at t=" << t;
    saw_ew = saw_ew || ew;
    saw_ns = saw_ns || ns;
  }
  EXPECT_TRUE(saw_ew);
  EXPECT_TRUE(saw_ns);
}

TEST(FixedCycle, NonSignalizedAlwaysGreen) {
  const auto net = geo::make_manhattan_grid(3, 3, 100.0);
  sim::Simulator sim;
  mobility::FixedCycleController ctrl(net, sim);
  // A link into a corner node (2 in-links) is never gated.
  for (const auto& l : net.links()) {
    if (l.to == NodeId{0}) {
      for (double t = 0; t < 40; t += 3) {
        sim.run_until(t);
        EXPECT_TRUE(ctrl.can_enter(l.id, VehicleId{1}));
      }
      break;
    }
  }
}

TEST(RedLight, VehicleStopsAtStopLine) {
  const auto net = geo::make_manhattan_grid(3, 3, 200.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(net, Rng(1));
  // Permanent red for everything into the center node.
  traffic.set_right_of_way([&](LinkId link, VehicleId) {
    return !(net.link(link).to == NodeId{4});
  });
  // Route through the center.
  const auto path = net.shortest_path(NodeId{3}, NodeId{5});  // 3 -> 4 -> 5
  ASSERT_TRUE(path.has_value());
  const auto v = traffic.spawn(*path, 13.0);
  for (int i = 0; i < 600; ++i) traffic.step(0.1);
  const auto* state = traffic.find(v);
  ASSERT_NE(state, nullptr);
  // Still on the first link, stopped at the line.
  EXPECT_EQ(state->link, path->front());
  EXPECT_LT(state->speed, 0.5);
  EXPECT_GT(state->offset, net.link(path->front()).length - 20.0);
}

TEST(RedLight, GreenReleasesTheQueue) {
  const auto net = geo::make_manhattan_grid(3, 3, 200.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(net, Rng(1));
  bool red = true;
  traffic.set_right_of_way([&](LinkId link, VehicleId) {
    return !red || !(net.link(link).to == NodeId{4});
  });
  const auto path = net.shortest_path(NodeId{3}, NodeId{5});
  const auto v = traffic.spawn(*path, 13.0);
  for (int i = 0; i < 300; ++i) traffic.step(0.1);
  ASSERT_EQ(traffic.find(v)->link, path->front());  // held at the line
  red = false;
  for (int i = 0; i < 300; ++i) traffic.step(0.1);
  const auto* state = traffic.find(v);
  // Released: crossed the junction (or finished the route and despawned).
  if (state != nullptr) {
    EXPECT_NE(state->link, path->front());
  }
}

class VtlFixture : public ::testing::Test {
 protected:
  VtlFixture() {
    core::ScenarioConfig cfg;
    cfg.vehicles = 50;
    cfg.seed = 17;
    cfg.grid_rows = 4;
    cfg.grid_cols = 4;
    scenario_ = std::make_unique<core::Scenario>(cfg);
    scenario_->start();
  }
  std::unique_ptr<core::Scenario> scenario_;
};

TEST_F(VtlFixture, ElectsLeadersAtBusyJunctions) {
  core::VtlController vtl(scenario_->network());
  vtl.attach();
  scenario_->network().traffic().set_right_of_way(
      [&vtl](LinkId l, VehicleId v) { return vtl.can_enter(l, v); });
  scenario_->run_for(30.0);
  std::size_t with_leader = 0;
  for (const NodeId node : vtl.intersections().signalized()) {
    if (vtl.leader(node).valid()) ++with_leader;
  }
  EXPECT_GT(with_leader, 0u);
}

TEST_F(VtlFixture, LeadersAreApproachingVehicles) {
  core::VtlController vtl(scenario_->network());
  vtl.decide();
  for (const NodeId node : vtl.intersections().signalized()) {
    const VehicleId leader = vtl.leader(node);
    if (!leader.valid()) continue;
    const auto* v = scenario_->traffic().find(leader);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(scenario_->road().link(v->link).to, node);
  }
}

TEST_F(VtlFixture, OneGroupGreenPerControlledJunction) {
  core::VtlController vtl(scenario_->network());
  vtl.decide();
  const auto& net = scenario_->road();
  for (const NodeId node : vtl.intersections().signalized()) {
    if (!vtl.leader(node).valid()) continue;  // uncontrolled when empty
    bool ew_green = false;
    bool ns_green = false;
    for (const auto& l : net.links()) {
      if (!(l.to == node)) continue;
      const bool green = vtl.can_enter(l.id, VehicleId{0});
      if (mobility::approach_group(net, l.id) == ApproachGroup::kEastWest) {
        ew_green = ew_green || green;
      } else {
        ns_green = ns_green || green;
      }
    }
    EXPECT_NE(ew_green, ns_green) << "junction " << node;
  }
}

TEST_F(VtlFixture, TrafficKeepsFlowingUnderVtl) {
  core::VtlController vtl(scenario_->network());
  vtl.attach();
  scenario_->network().traffic().set_right_of_way(
      [&vtl](LinkId l, VehicleId v) { return vtl.can_enter(l, v); });
  core::StopMeter meter(scenario_->traffic());
  meter.attach(scenario_->simulator());
  scenario_->run_for(120.0);
  // Controlled but not gridlocked: plenty of movement.
  EXPECT_GT(meter.mean_speed(), 2.0);
  EXPECT_LT(meter.stopped_fraction(), 0.7);
}

TEST(StopMeterTest, CountsStoppedVehicles) {
  const auto net = geo::make_manhattan_grid(2, 2, 100.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(net, Rng(1));
  traffic.spawn_parked(LinkId{0}, 10.0);  // parked: excluded
  const auto path = net.shortest_path(NodeId{0}, NodeId{3});
  traffic.spawn(*path, 10.0);  // moving
  core::StopMeter meter(traffic);
  meter.sample();
  EXPECT_DOUBLE_EQ(meter.stopped_fraction(), 0.0);
  EXPECT_NEAR(meter.mean_speed(), 10.0, 1e-9);
}

}  // namespace
}  // namespace vcl
