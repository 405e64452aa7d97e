#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "mobility/idm.h"
#include "mobility/traffic.h"
#include "mobility/trip_generator.h"
#include "reference_prefill.h"
#include "reference_route.h"
#include "sim/simulator.h"

namespace vcl::mobility {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Idm, FreeRoadAcceleratesTowardDesiredSpeed) {
  EXPECT_GT(idm_acceleration(10.0, 0.0, kInf, 30.0), 0.0);
  EXPECT_NEAR(idm_acceleration(30.0, 0.0, kInf, 30.0), 0.0, 1e-9);
  EXPECT_LT(idm_acceleration(35.0, 0.0, kInf, 30.0), 0.0);
}

TEST(Idm, BrakesWhenGapSmall) {
  EXPECT_LT(idm_acceleration(20.0, 0.0, 3.0, 30.0), -1.0);
}

// Emergency braking is capped at three times the comfortable 2 m/s^2.
constexpr double kMaxBrake = -6.0;
constexpr double kMaxAccel = 1.5;

TEST(Idm, DecelerationIsBounded) {
  const double a = idm_acceleration(40.0, 40.0, 0.1, 30.0);
  EXPECT_GE(a, kMaxBrake - 1e-9);
}

// idm_acceleration over desired speed x speed x approach rate x gap,
// recorded as hex floats. The first desired speed is below the 0.1 m/s floor
// and the last gap is a free road.
constexpr double kPinnedDesired[] = {0.05, 13.9, 33.3};
constexpr double kPinnedSpeeds[] = {0.0, 4.5, 13.9, 41.0};
constexpr double kPinnedApproach[] = {-6.0, 0.0, 15.0};
constexpr double kPinnedGaps[] = {0.004, 2.5, 18.0, 120.0, kInf};
constexpr double kPinnedAccel[3][4][3][5] = {
    {
        {  // v0 0.05, speed 0
            {-0x1.8p+2, 0x1.147ae147ae146p-1, 0x1.7b425ed097b42p+0,
             0x1.7fe4b17e4b17ep+0, 0x1.8p+0},
            {-0x1.8p+2, 0x1.147ae147ae146p-1, 0x1.7b425ed097b42p+0,
             0x1.7fe4b17e4b17ep+0, 0x1.8p+0},
            {-0x1.8p+2, 0x1.147ae147ae146p-1, 0x1.7b425ed097b42p+0,
             0x1.7fe4b17e4b17ep+0, 0x1.8p+0},
        },
        {  // v0 0.05, speed 4.5
            {-0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2},
            {-0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2},
            {-0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2},
        },
        {  // v0 0.05, speed 13.9
            {-0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2},
            {-0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2},
            {-0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2},
        },
        {  // v0 0.05, speed 41
            {-0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2},
            {-0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2},
            {-0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2},
        },
    },
    {
        {  // v0 13.9, speed 0
            {-0x1.8p+2, 0x1.147ae147ae146p-1, 0x1.7b425ed097b42p+0,
             0x1.7fe4b17e4b17ep+0, 0x1.8p+0},
            {-0x1.8p+2, 0x1.147ae147ae146p-1, 0x1.7b425ed097b42p+0,
             0x1.7fe4b17e4b17ep+0, 0x1.8p+0},
            {-0x1.8p+2, 0x1.147ae147ae146p-1, 0x1.7b425ed097b42p+0,
             0x1.7fe4b17e4b17ep+0, 0x1.8p+0},
        },
        {  // v0 13.9, speed 4.5
            {-0x1.8p+2, 0x1.0c0b2fd91cb3cp-1, 0x1.770a86194f03dp+0,
             0x1.7bacd8c702679p+0, 0x1.7bc82748b74fbp+0},
            {-0x1.8p+2, -0x1.8p+2, 0x1.210a86194f03ep+0, 0x1.79bd7c9e0ca5p+0,
             0x1.7bc82748b74fbp+0},
            {-0x1.8p+2, -0x1.8p+2, -0x1.1a8d527c31ad1p+1, 0x1.66859c49cfabep+0,
             0x1.7bc82748b74fbp+0},
        },
        {  // v0 13.9, speed 13.9
            {-0x1.8p+2, -0x1.eb851eb851ebap-1, -0x1.2f684bda12f68p-6,
             -0x1.b4e81b4e81b4ep-12, 0x0p+0},
            {-0x1.8p+2, -0x1.8p+2, -0x1.3567eac2f0736p+1, -0x1.bd8b66895a3fbp-5,
             0x0p+0},
            {-0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.6fc1b1b67aa4p-1, 0x0p+0},
        },
        {  // v0 13.9, speed 41
            {-0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2},
            {-0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2},
            {-0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2},
        },
    },
    {
        {  // v0 33.3, speed 0
            {-0x1.8p+2, 0x1.147ae147ae146p-1, 0x1.7b425ed097b42p+0,
             0x1.7fe4b17e4b17ep+0, 0x1.8p+0},
            {-0x1.8p+2, 0x1.147ae147ae146p-1, 0x1.7b425ed097b42p+0,
             0x1.7fe4b17e4b17ep+0, 0x1.8p+0},
            {-0x1.8p+2, 0x1.147ae147ae146p-1, 0x1.7b425ed097b42p+0,
             0x1.7fe4b17e4b17ep+0, 0x1.8p+0},
        },
        {  // v0 33.3, speed 4.5
            {-0x1.8p+2, 0x1.1439508dab403p-1, 0x1.7b219673964ap+0,
             0x1.7fc3e92149adcp+0, 0x1.7fdf37a2fe95ep+0},
            {-0x1.8p+2, -0x1.8p+2, 0x1.25219673964a1p+0, 0x1.7dd48cf853eb4p+0,
             0x1.7fdf37a2fe95ep+0},
            {-0x1.8p+2, -0x1.8p+2, -0x1.1881ca4f0e09fp+1, 0x1.6a9caca416f21p+0,
             0x1.7fdf37a2fe95ep+0},
        },
        {  // v0 33.3, speed 13.9
            {-0x1.8p+2, 0x1.fa54421d23bacp-2, 0x1.6f99feb40998ap+0,
             0x1.743c5161bcfc6p+0, 0x1.74579fe371e48p+0},
            {-0x1.8p+2, -0x1.8p+2, -0x1.ecf06b44de047p-1, 0x1.666b44af27128p+0,
             0x1.74579fe371e48p+0},
            {-0x1.8p+2, -0x1.8p+2, -0x1.8p+2, 0x1.78ed8e106925p-1,
             0x1.74579fe371e48p+0},
        },
        {  // v0 33.3, speed 41
            {-0x1.8p+2, -0x1.741ac74c5ec34p+1, -0x1.f730a06bfcdc9p+0,
             -0x1.f28e4dbe4978dp+0, -0x1.f272ff3c9490bp+0},
            {-0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.2efce96e80e56p+1,
             -0x1.f272ff3c9490bp+0},
            {-0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.8p+2, -0x1.f272ff3c9490bp+0},
        },
    },
};

TEST(Idm, AccelerationMatchesPinnedModel) {
  for (std::size_t d = 0; d < std::size(kPinnedDesired); ++d) {
    for (std::size_t s = 0; s < std::size(kPinnedSpeeds); ++s) {
      for (std::size_t a = 0; a < std::size(kPinnedApproach); ++a) {
        for (std::size_t g = 0; g < std::size(kPinnedGaps); ++g) {
          EXPECT_EQ(idm_acceleration(kPinnedSpeeds[s], kPinnedApproach[a],
                                     kPinnedGaps[g], kPinnedDesired[d]),
                    kPinnedAccel[d][s][a][g])
              << "v0 " << kPinnedDesired[d] << ", speed " << kPinnedSpeeds[s]
              << ", approach " << kPinnedApproach[a] << ", gap "
              << kPinnedGaps[g];
        }
      }
    }
  }
}

// Property sweep: across speeds/gaps, acceleration stays within the
// physical envelope.
class IdmEnvelope : public ::testing::TestWithParam<double> {};

TEST_P(IdmEnvelope, AccelWithinBounds) {
  const double speed = GetParam();
  for (double gap = 0.5; gap < 200.0; gap *= 2) {
    for (double approach = -10.0; approach <= 20.0; approach += 5.0) {
      const double a = idm_acceleration(speed, approach, gap, 30.0);
      EXPECT_LE(a, kMaxAccel + 1e-9);
      EXPECT_GE(a, kMaxBrake - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Speeds, IdmEnvelope,
                         ::testing::Values(0.0, 5.0, 15.0, 30.0, 45.0));

class TrafficFixture : public ::testing::Test {
 protected:
  TrafficFixture()
      : net_(geo::make_manhattan_grid(4, 4, 200.0)),
        traffic_(net_, Rng(42)) {}

  geo::RoadNetwork net_;
  TrafficModel traffic_;
};

TEST_F(TrafficFixture, SpawnPlacesVehicleAtRouteStart) {
  const auto path = net_.shortest_path(NodeId{0}, NodeId{15});
  ASSERT_TRUE(path);
  const VehicleId id = traffic_.spawn(*path, 10.0);
  const VehicleState* v = traffic_.find(id);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->link, path->front());
  EXPECT_DOUBLE_EQ(v->offset, 0.0);
  EXPECT_DOUBLE_EQ(v->speed, 10.0);
}

TEST_F(TrafficFixture, StepAdvancesVehicle) {
  const auto path = net_.shortest_path(NodeId{0}, NodeId{15});
  const VehicleId id = traffic_.spawn(*path, 10.0);
  traffic_.step(1.0);
  const VehicleState* v = traffic_.find(id);
  ASSERT_NE(v, nullptr);
  EXPECT_GT(v->offset, 5.0);  // moved roughly speed * dt
}

TEST_F(TrafficFixture, VehicleCrossesLinkBoundaries) {
  const auto path = net_.shortest_path(NodeId{0}, NodeId{15});
  const VehicleId id = traffic_.spawn(*path, 13.0);
  for (int i = 0; i < 300; ++i) traffic_.step(0.5);
  // After 150 s at ~13 m/s the vehicle passed several 200 m links (or
  // finished the trip and was despawned — also evidence of link crossing).
  const VehicleState* v = traffic_.find(id);
  if (v != nullptr) {
    EXPECT_GT(v->route_index, 0u);
  } else {
    SUCCEED();
  }
}

TEST_F(TrafficFixture, ArrivedVehicleDespawnsWithoutHandler) {
  const auto path = net_.shortest_path(NodeId{0}, NodeId{1});  // one link
  const VehicleId id = traffic_.spawn(*path, 15.0);
  for (int i = 0; i < 100; ++i) traffic_.step(0.5);
  EXPECT_EQ(traffic_.find(id), nullptr);
}

TEST_F(TrafficFixture, ArrivalHandlerKeepsVehicleAlive) {
  traffic_.set_arrival_handler(
      [this](const VehicleState& v) -> std::optional<std::vector<LinkId>> {
        const NodeId end = net_.link(v.link).to;
        // Bounce back along any outgoing link.
        return std::vector<LinkId>{net_.node(end).out_links.front()};
      });
  const auto path = net_.shortest_path(NodeId{0}, NodeId{1});
  const VehicleId id = traffic_.spawn(*path, 15.0);
  for (int i = 0; i < 200; ++i) traffic_.step(0.5);
  EXPECT_NE(traffic_.find(id), nullptr);
}

TEST_F(TrafficFixture, ParkedVehicleDoesNotMove) {
  const VehicleId id = traffic_.spawn_parked(LinkId{0}, 50.0);
  const geo::Vec2 before = traffic_.find(id)->pos;
  for (int i = 0; i < 50; ++i) traffic_.step(0.5);
  const VehicleState* v = traffic_.find(id);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->pos, before);
  EXPECT_TRUE(v->parked);
}

TEST_F(TrafficFixture, FollowerNeverOvertakesLeaderOnLane) {
  // Leader crawls; follower starts fast behind it.
  const auto path = net_.shortest_path(NodeId{0}, NodeId{3});
  ASSERT_TRUE(path);
  const VehicleId leader = traffic_.spawn(*path, 1.0, {}, 0.1);
  VehicleState* lv = traffic_.find_mutable(leader);
  lv->offset = 60.0;
  const VehicleId follower = traffic_.spawn(*path, 20.0);
  for (int i = 0; i < 200; ++i) {
    traffic_.step(0.1);
    const VehicleState* l = traffic_.find(leader);
    const VehicleState* f = traffic_.find(follower);
    if (l == nullptr || f == nullptr) break;
    if (l->link == f->link && l->lane == f->lane) {
      EXPECT_GE(l->offset - f->offset, 0.0)
          << "follower overtook leader in-lane at step " << i;
    }
  }
}

TEST_F(TrafficFixture, WorldFramePositionsOnNetwork) {
  const auto path = net_.shortest_path(NodeId{0}, NodeId{15});
  const VehicleId id = traffic_.spawn(*path, 10.0);
  traffic_.step(0.5);
  const VehicleState* v = traffic_.find(id);
  const auto [lo, hi] = net_.bounding_box();
  EXPECT_GE(v->pos.x, lo.x - 10);
  EXPECT_LE(v->pos.x, hi.x + 10);
}

TEST_F(TrafficFixture, DwellPredictionFiniteForExitingVehicle) {
  const auto path = net_.shortest_path(NodeId{0}, NodeId{3});
  const VehicleId id = traffic_.spawn(*path, 10.0);
  // Disc around the start; the route exits it.
  const double t = traffic_.predict_time_to_exit(id, {0, 0}, 150.0);
  EXPECT_TRUE(std::isfinite(t));
  // Roughly 150 m at 10 m/s.
  EXPECT_NEAR(t, 15.0, 5.0);
}

TEST_F(TrafficFixture, DwellPredictionInfiniteForParked) {
  const VehicleId id = traffic_.spawn_parked(LinkId{0}, 10.0);
  EXPECT_TRUE(std::isinf(traffic_.predict_time_to_exit(id, {0, 0}, 500.0)));
}

TEST_F(TrafficFixture, OracleUsesSpeedLimits) {
  const auto path = net_.shortest_path(NodeId{0}, NodeId{3});
  const VehicleId id = traffic_.spawn(*path, 2.0);  // crawling now
  const double est = traffic_.predict_time_to_exit(id, {0, 0}, 150.0);
  const double oracle = traffic_.oracle_time_to_exit(id, {0, 0}, 150.0);
  // Oracle assumes the vehicle will speed up to the limit, so exits sooner.
  EXPECT_LT(oracle, est);
}

TEST(TripGenerator, PrefillReachesTarget) {
  const auto net = geo::make_manhattan_grid(5, 5, 150.0);
  TrafficModel traffic(net, Rng(1));
  TripGeneratorConfig cfg;
  cfg.target_population = 40;
  TripGenerator gen(traffic, cfg, Rng(2));
  gen.prefill();
  EXPECT_EQ(traffic.vehicle_count(), 40u);
}

TEST(TripGenerator, KeepAliveMaintainsPopulation) {
  const auto net = geo::make_manhattan_grid(5, 5, 150.0);
  TrafficModel traffic(net, Rng(1));
  TripGeneratorConfig cfg;
  cfg.target_population = 30;
  TripGenerator gen(traffic, cfg, Rng(2));
  sim::Simulator sim;
  traffic.attach(sim);
  gen.attach(sim);
  gen.prefill();
  sim.run_until(120.0);
  EXPECT_GE(traffic.vehicle_count(), 25u);
  EXPECT_LE(traffic.vehicle_count(), 31u);
}

TEST(TripGenerator, RoutesAreConnected) {
  const auto net = geo::make_manhattan_grid(5, 5, 150.0);
  TrafficModel traffic(net, Rng(1));
  TripGenerator gen(traffic, {}, Rng(3));
  for (int i = 0; i < 20; ++i) {
    const auto route = gen.random_route();
    ASSERT_FALSE(route.empty());
    for (std::size_t j = 0; j + 1 < route.size(); ++j) {
      EXPECT_EQ(net.link(route[j]).to, net.link(route[j + 1]).from);
    }
  }
}

// The fleet city_infra_large prefills: every route is the path plain
// Dijkstra finds between the route's first and last nodes.
TEST(TripGenerator, PrefilledRoutesAreDijkstraPaths) {
  const auto net = geo::make_manhattan_grid(34, 34, 200.0);
  TrafficModel traffic(net, Rng(1));
  TripGeneratorConfig cfg;
  cfg.target_population = 3200;
  TripGenerator gen(traffic, cfg, Rng(2));
  gen.prefill();
  ASSERT_EQ(traffic.vehicle_count(), 3200u);
  int checked = 0;
  for (const auto& [id, v] : traffic.vehicles()) {
    ASSERT_FALSE(v.route.empty());
    const NodeId first = net.link(v.route.front()).from;
    const NodeId last = net.link(v.route.back()).to;
    ASSERT_EQ(std::optional(v.route),
              geo::reference_shortest_path(net, first, last))
        << "vehicle " << id;
    ++checked;
  }
  EXPECT_EQ(checked, 3200);
}

// Prefills `vehicles` vehicles on `net` and checks every vehicle against
// the serial reference loop, then the generator's next draw.
void expect_prefill_matches_reference(const geo::RoadNetwork& net,
                                      int vehicles) {
  TripGeneratorConfig cfg;
  cfg.target_population = vehicles;
  TrafficModel traffic(net, Rng(1));
  TripGenerator gen(traffic, cfg, Rng(2));
  gen.prefill();
  TrafficModel want_traffic(net, Rng(1));
  Rng want_rng(2);
  reference_prefill(want_traffic, cfg, want_rng);

  ASSERT_EQ(traffic.vehicle_count(), want_traffic.vehicle_count());
  EXPECT_EQ(gen.spawned(), static_cast<int>(want_traffic.vehicle_count()));
  for (const auto& [id, want] : want_traffic.vehicles()) {
    const VehicleState* got = traffic.find(VehicleId{id});
    ASSERT_NE(got, nullptr) << "vehicle " << id;
    ASSERT_EQ(got->route, want.route) << "vehicle " << id;
    // Bitwise: the same draws give the same doubles.
    ASSERT_EQ(got->speed, want.speed) << "vehicle " << id;
    ASSERT_EQ(got->automation, want.automation) << "vehicle " << id;
    ASSERT_EQ(got->speed_factor, want.speed_factor) << "vehicle " << id;
    ASSERT_EQ(got->offset, want.offset) << "vehicle " << id;
  }
  // The generator's RNG is where the serial loop left it.
  EXPECT_EQ(gen.random_route(), reference_random_route(net, want_rng));
}

// The fleet of city_infra_large: every pair is searched ahead.
TEST(TripGenerator, PrefillMatchesSerialReferenceOnCityGrid) {
  expect_prefill_matches_reference(geo::make_manhattan_grid(34, 34, 200.0),
                                   3200);
}

// On a 4 x 4 grid nearly half the drawn pairs lie within two hops and are
// rejected as too short.
TEST(TripGenerator, PrefillMatchesSerialReferenceWithShortPairs) {
  expect_prefill_matches_reference(geo::make_manhattan_grid(4, 4, 150.0),
                                   1500);
}

// A 30 x 30 grid plus a dead end (entered, never left) and an on-ramp (left,
// never entered): about 0.2% of the pairs are unreachable, and each one
// that was searched ahead sends the prefill back to speculate again.
TEST(TripGenerator, PrefillMatchesSerialReferenceWithUnreachablePairs) {
  auto net = geo::make_manhattan_grid(30, 30, 200.0);
  const NodeId corner{0};
  const geo::Vec2 at = net.node(corner).pos;
  const NodeId dead_end = net.add_node({at.x - 200.0, at.y});
  net.add_link(corner, dead_end, 13.9);
  const NodeId on_ramp = net.add_node({at.x, at.y - 200.0});
  net.add_link(on_ramp, corner, 13.9);
  ASSERT_FALSE(net.shortest_path(dead_end, corner).has_value());
  ASSERT_FALSE(net.shortest_path(corner, on_ramp).has_value());
  expect_prefill_matches_reference(net, 3000);
}

}  // namespace
}  // namespace vcl::mobility
