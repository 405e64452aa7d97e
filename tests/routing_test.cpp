#include <gtest/gtest.h>

#include <cmath>

#include "mobility/trip_generator.h"
#include "routing/cbltr.h"
#include "routing/flooding.h"
#include "routing/greedy_geo.h"
#include "routing/metrics.h"
#include "routing/mozo_routing.h"
#include "routing/quality_greedy.h"

namespace vcl::routing {
namespace {

TEST(LinkLifetime, AlreadyOutOfRangeIsZero) {
  EXPECT_DOUBLE_EQ(link_lifetime({0, 0}, {0, 0}, {400, 0}, {0, 0}, 300), 0.0);
}

TEST(LinkLifetime, StaticNodesNeverSeparate) {
  EXPECT_TRUE(std::isinf(
      link_lifetime({0, 0}, {10, 0}, {100, 0}, {10, 0}, 300)));
}

TEST(LinkLifetime, HeadOnApproachThenSeparate) {
  // B starts 100 m ahead moving away at 10 m/s relative: leaves 300 m range
  // after (300 - 100) / 10 = 20 s.
  const double t = link_lifetime({0, 0}, {0, 0}, {100, 0}, {10, 0}, 300);
  EXPECT_NEAR(t, 20.0, 1e-6);
}

TEST(LinkLifetime, ApproachingExtendsLifetime) {
  // B ahead, moving toward A then past: lifetime covers pass-through.
  const double toward = link_lifetime({0, 0}, {0, 0}, {200, 0}, {-10, 0}, 300);
  const double away = link_lifetime({0, 0}, {0, 0}, {200, 0}, {10, 0}, 300);
  EXPECT_GT(toward, away);
}

TEST(RoutingMetrics, DeliveryAccounting) {
  RoutingMetrics m;
  net::Message msg;
  msg.id = MessageId{1};
  msg.created = 0.0;
  msg.hops = 3;
  m.on_originate(msg);
  m.on_originate(msg);  // second message never delivered
  m.on_deliver(msg, 2.0);
  m.on_deliver(msg, 5.0);  // duplicate: ignored
  EXPECT_EQ(m.delivered(), 1u);
  EXPECT_DOUBLE_EQ(m.delivery_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(m.delay().mean(), 2.0);
  EXPECT_DOUBLE_EQ(m.hops().mean(), 3.0);
  EXPECT_TRUE(m.was_delivered(MessageId{1}));
  EXPECT_FALSE(m.was_delivered(MessageId{2}));
}

TEST(RoutingMetrics, Overhead) {
  RoutingMetrics m;
  net::Message msg;
  msg.id = MessageId{1};
  m.on_originate(msg);
  for (int i = 0; i < 6; ++i) m.on_transmit();
  EXPECT_DOUBLE_EQ(m.overhead(), 6.0);
}

// A chain of parked vehicles 150 m apart: every protocol should get a
// message from one end to the other.
class ChainFixture : public ::testing::Test {
 protected:
  ChainFixture()
      : road_(make_chain_road()),
        traffic_(road_, Rng(1)),
        net_(sim_, traffic_, Rng(2)) {
    // Vehicles every 150 m along the 1500 m road.
    for (int i = 0; i <= 10; ++i) {
      const double pos = i * 150.0;
      const auto link = LinkId{static_cast<std::uint64_t>(i / 3)};
      const double offset = pos - 450.0 * static_cast<double>(i / 3);
      chain_.push_back(traffic_.spawn_parked(link, offset));
    }
    net_.start_beacons(0.5);
  }

  static geo::RoadNetwork make_chain_road() {
    geo::RoadNetwork net;
    // 4 links of 450 m in a straight line.
    auto prev = net.add_node({0, 0});
    for (int i = 1; i <= 4; ++i) {
      const auto n = net.add_node({450.0 * i, 0});
      net.add_link(prev, n, 14.0);
      prev = n;
    }
    return net;
  }

  template <typename RouterT>
  double run_delivery(RouterT& router, int n_messages = 5) {
    router.attach();
    net_.refresh();
    for (int i = 0; i < n_messages; ++i) {
      router.originate(chain_.front(), chain_.back());
    }
    sim_.run_until(20.0);
    return router.metrics().delivery_ratio();
  }

  geo::RoadNetwork road_;
  sim::Simulator sim_;
  mobility::TrafficModel traffic_;
  net::Network net_;
  std::vector<VehicleId> chain_;
};

TEST_F(ChainFixture, FloodingDeliversAlongChain) {
  Flooding router(net_);
  EXPECT_GE(run_delivery(router), 0.8);
  EXPECT_GE(router.metrics().hops().mean(), 2.0);  // genuinely multi-hop
}

TEST_F(ChainFixture, GreedyGeoDeliversAlongChain) {
  GreedyGeo router(net_);
  EXPECT_GE(run_delivery(router), 0.8);
}

TEST_F(ChainFixture, QualityGreedyDeliversAlongChain) {
  QualityGreedy router(net_);
  EXPECT_GE(run_delivery(router), 0.8);
}

TEST_F(ChainFixture, CbltrDeliversAlongChain) {
  Cbltr router(net_);
  EXPECT_GE(run_delivery(router), 0.8);
}

TEST_F(ChainFixture, MozoDeliversAlongChain) {
  cluster::MovingZone zones(net_);
  zones.attach();
  MozoRouting router(net_, zones);
  net_.refresh();
  zones.update();
  EXPECT_GE(run_delivery(router), 0.8);
}

// In a 2-D scene flooding transmits from (almost) every vehicle while greedy
// uses only the vehicles on one path — the classic overhead gap.
TEST(RoutingOverhead, GreedyBeatsFloodingInDenseScene) {
  const auto road = geo::make_manhattan_grid(4, 4, 150.0);
  auto run = [&](auto make_router) {
    sim::Simulator sim;
    mobility::TrafficModel traffic(road, Rng(21));
    net::Network net(sim, traffic, Rng(22));
    // One parked vehicle near every intersection: a dense 2-D cloud.
    std::vector<VehicleId> ids;
    for (const auto& node : road.nodes()) {
      const LinkId l = node.out_links.front();
      ids.push_back(traffic.spawn_parked(l, 1.0));
    }
    net.start_beacons(0.5);
    auto router = make_router(net);
    router->attach();
    net.refresh();
    for (int i = 0; i < 5; ++i) router->originate(ids.front(), ids.back());
    sim.run_until(20.0);
    return std::pair<double, double>{router->metrics().delivery_ratio(),
                                     router->metrics().overhead()};
  };
  const auto [flood_dr, flood_oh] = run([](net::Network& n) {
    return std::make_unique<Flooding>(n);
  });
  const auto [greedy_dr, greedy_oh] = run([](net::Network& n) {
    return std::make_unique<GreedyGeo>(n);
  });
  EXPECT_GE(flood_dr, 0.8);
  EXPECT_GE(greedy_dr, 0.8);
  EXPECT_LT(greedy_oh, flood_oh);
}

// Flooding that stamps 2 hops of TTL, not enough for a ~10-hop chain.
class ShortTtlFlooding final : public Router {
 public:
  explicit ShortTtlFlooding(net::Network& net) : Router(net, 2) {}
  [[nodiscard]] const char* name() const override { return "flooding/ttl2"; }

 protected:
  void forward(VehicleId self, const net::Message& msg) override {
    broadcast_from(self, msg);
  }
};

TEST_F(ChainFixture, TtlLimitsPropagation) {
  ShortTtlFlooding router(net_);
  router.attach();
  net_.refresh();
  router.originate(chain_.front(), chain_.back());
  sim_.run_until(20.0);
  EXPECT_DOUBLE_EQ(router.metrics().delivery_ratio(), 0.0);
}

TEST_F(ChainFixture, DirectNeighborDeliveredFirstHop) {
  GreedyGeo router(net_);
  router.attach();
  net_.refresh();
  router.originate(chain_[0], chain_[1]);
  sim_.run_until(5.0);
  EXPECT_DOUBLE_EQ(router.metrics().delivery_ratio(), 1.0);
  EXPECT_LE(router.metrics().hops().mean(), 2.0);
}

// Mobile scenario: moving vehicles on a grid, sanity across protocols.
TEST(RoutingMobile, GreedyDeliversInMovingTraffic) {
  const auto road = geo::make_manhattan_grid(5, 5, 200.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(road, Rng(11));
  mobility::TripGeneratorConfig cfg;
  cfg.target_population = 80;
  mobility::TripGenerator gen(traffic, cfg, Rng(12));
  gen.prefill();
  net::Network net(sim, traffic, Rng(13));
  traffic.attach(sim);
  gen.attach(sim);
  net.start_beacons(1.0);

  GreedyGeo router(net);
  router.attach();
  net.refresh();

  Rng pick(14);
  std::vector<VehicleId> ids;
  for (const auto& [vid, v] : traffic.vehicles()) ids.push_back(v.id);
  for (int i = 0; i < 20; ++i) {
    const VehicleId src = pick.pick(ids);
    const VehicleId dst = pick.pick(ids);
    if (src == dst) continue;
    router.originate(src, dst);
  }
  sim.run_until(30.0);
  EXPECT_GE(router.metrics().delivery_ratio(), 0.5);
}

}  // namespace
}  // namespace vcl::routing
