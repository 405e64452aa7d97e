// Bus-trajectory ferry routing (Sun et al. [36]).
#include <gtest/gtest.h>

#include "routing/bus_ferry.h"
#include "routing/greedy_geo.h"

namespace vcl::routing {
namespace {

TEST(BusRegistryTest, RegistersAndCovers) {
  const auto net = geo::make_manhattan_grid(4, 4, 300.0);
  BusRegistry registry;
  EXPECT_FALSE(registry.is_bus(VehicleId{1}));
  const auto loop =
      build_loop_route(net, {NodeId{0}, NodeId{3}, NodeId{15}, NodeId{12}}, 1);
  ASSERT_FALSE(loop.empty());
  registry.register_bus(VehicleId{1}, loop);
  EXPECT_TRUE(registry.is_bus(VehicleId{1}));
  // The loop passes the corners but not far outside the grid.
  EXPECT_TRUE(registry.route_covers(VehicleId{1}, {900, 0}, 150.0, net));
  EXPECT_FALSE(registry.route_covers(VehicleId{1}, {5000, 5000}, 150.0, net));
}

TEST(BusRegistryTest, LoopRouteIsConnectedAndCyclic) {
  const auto net = geo::make_manhattan_grid(4, 4, 300.0);
  const auto loop =
      build_loop_route(net, {NodeId{0}, NodeId{15}}, 3);
  ASSERT_FALSE(loop.empty());
  for (std::size_t i = 0; i + 1 < loop.size(); ++i) {
    EXPECT_EQ(net.link(loop[i]).to, net.link(loop[i + 1]).from);
  }
  // Cyclic: ends where it starts.
  EXPECT_EQ(net.link(loop.back()).to, net.link(loop.front()).from);
}

TEST(BusRegistryTest, UnreachableStopsGiveEmptyRoute) {
  geo::RoadNetwork net;
  const auto a = net.add_node({0, 0});
  const auto b = net.add_node({100, 0});
  net.add_link(a, b, 10.0);  // one-way, no return: loop impossible
  EXPECT_TRUE(build_loop_route(net, {a, b}, 1).empty());
}

// Sparse-island scenario: two clusters of parked vehicles 2 km apart, far
// beyond radio range, connected only by a bus shuttling between them.
class FerryFixture : public ::testing::Test {
 protected:
  FerryFixture()
      : road_(geo::make_manhattan_grid(2, 8, 300.0)),
        traffic_(road_, Rng(1)),
        net_(sim_, traffic_, Rng(2)) {
    // Island A at the west end, island B at the east end (x: 0 vs 2100).
    west_ = traffic_.spawn_parked(LinkId{0}, 0.0);
    traffic_.spawn_parked(LinkId{0}, 60.0);
    // Find an eastmost bottom-row link.
    for (const auto& l : road_.links()) {
      const auto p = road_.position_on_link(l.id, 0.0);
      if (p.x >= 1800 && p.y < 10 &&
          road_.link_direction(l.id).x > 0.9) {
        east_link_ = l.id;
      }
    }
    east_ = traffic_.spawn_parked(east_link_, 250.0);

    // The bus loops the full row, west to east and back, many times.
    const auto loop = build_loop_route(
        road_, {NodeId{0}, NodeId{7}}, 40);
    EXPECT_FALSE(loop.empty());
    bus_ = traffic_.spawn(loop, 14.0, mobility::AutomationLevel::kHighAutomation,
                          1.0);
    registry_.register_bus(bus_, loop);
    traffic_.attach(sim_);
    net_.start_beacons(0.5);
  }

  geo::RoadNetwork road_;
  sim::Simulator sim_;
  mobility::TrafficModel traffic_;
  net::Network net_;
  BusRegistry registry_;
  VehicleId west_, east_, bus_;
  LinkId east_link_;
};

TEST_F(FerryFixture, BusBridgesDisconnectedIslands) {
  BusFerryRouting router(net_, registry_);
  router.attach();
  net_.refresh();
  router.originate(west_, east_);
  // The bus needs to drive ~2 km: give it time.
  sim_.run_until(400.0);
  EXPECT_DOUBLE_EQ(router.metrics().delivery_ratio(), 1.0);
  EXPECT_GE(router.ferry_handoffs(), 1u);
  // End-to-end delay is dominated by the bus ride (minutes, not ms).
  EXPECT_GT(router.metrics().delay().mean(), 30.0);
}

TEST_F(FerryFixture, ConnectedPathPatienceCannotCross) {
  // Greedy with its normal connected-path message lifetime (30 s): the bus
  // ride takes minutes, so the message dies in a buffer long before the
  // islands connect. (With DTN-scale patience greedy's carry-and-forward
  // would eventually cross too — the ferry protocol's contribution is
  // choosing the carrier whose published trajectory guarantees it.)
  GreedyGeo router(net_);
  router.attach();
  net_.refresh();
  router.originate(west_, east_);
  sim_.run_until(400.0);
  EXPECT_DOUBLE_EQ(router.metrics().delivery_ratio(), 0.0);
}

TEST_F(FerryFixture, BusHoldsCargoUntilDestinationArea) {
  BusFerryRouting router(net_, registry_);
  router.attach();
  net_.refresh();
  router.originate(west_, east_);
  // Early on (bus still near the west island), nothing delivered.
  sim_.run_until(30.0);
  EXPECT_DOUBLE_EQ(router.metrics().delivery_ratio(), 0.0);
  sim_.run_until(400.0);
  EXPECT_DOUBLE_EQ(router.metrics().delivery_ratio(), 1.0);
}

}  // namespace
}  // namespace vcl::routing
