#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>

#include "mobility/traffic.h"
#include "net/channel.h"
#include "net/network.h"
#include "net/rsu.h"
#include "sim/simulator.h"

namespace vcl::net {
namespace {

TEST(Channel, PerfectAtShortRange) {
  const Channel ch;
  const double p = ch.reception_probability({0, 0}, {50, 0}, 0);
  EXPECT_GT(p, 0.9);
}

TEST(Channel, ZeroBeyondMaxRange) {
  const Channel ch;
  EXPECT_DOUBLE_EQ(ch.reception_probability({0, 0}, {301, 0}, 0), 0.0);
}

TEST(Channel, MonotoneInDistance) {
  const Channel ch;
  double prev = 1.0;
  for (double d = 10; d <= 300; d += 10) {
    const double p = ch.reception_probability({0, 0}, {d, 0}, 0);
    EXPECT_LE(p, prev + 1e-12) << "at distance " << d;
    prev = p;
  }
}

TEST(Channel, DensityErodesReception) {
  const Channel ch;
  const double quiet = ch.reception_probability({0, 0}, {100, 0}, 0);
  const double busy = ch.reception_probability({0, 0}, {100, 0}, 100);
  EXPECT_LT(busy, quiet);
}

TEST(Channel, HopDelayGrowsWithSizeAndDensity) {
  const Channel ch;
  EXPECT_LT(ch.hop_delay(100, 0), ch.hop_delay(10000, 0));
  EXPECT_LT(ch.hop_delay(100, 0), ch.hop_delay(100, 50));
  EXPECT_GT(ch.hop_delay(100, 0), 0.0);
}

TEST(Channel, AttemptRespectsCutoff) {
  const Channel ch;
  Rng rng(1);
  const ReceptionResult r = ch.attempt({0, 0}, {500, 0}, 100, 0, rng);
  EXPECT_FALSE(r.received);
}

// The radio model's constants, pinned bit for bit: reception probability
// around the 150 m fade start and the 300 m cutoff, at local densities 0-60,
// and the per-hop delay for a few sizes. A mistyped constant changes some
// cell here even where no bench output happens to read it.
constexpr double kPinnedDistances[] = {0,   50,  100, 149.5, 150,
                                       150.5, 175, 200, 225, 250,
                                       275, 299.5, 300, 300.5, 310};
constexpr std::size_t kPinnedDensities[] = {0, 1, 10, 30, 60};
constexpr double kPinnedReception[][5] = {
    {0x1.f5c28f5c28f5cp-1, 0x1.f3c0c1fc8f323p-1, 0x1.e1b089a027525p-1,
     0x1.b98c7e28240b7p-1, 0x1.7d566cf41f213p-1},  // 0 m
    {0x1.f5c28f5c28f5cp-1, 0x1.f3c0c1fc8f323p-1, 0x1.e1b089a027525p-1,
     0x1.b98c7e28240b7p-1, 0x1.7d566cf41f213p-1},  // 50 m
    {0x1.f5c28f5c28f5cp-1, 0x1.f3c0c1fc8f323p-1, 0x1.e1b089a027525p-1,
     0x1.b98c7e28240b7p-1, 0x1.7d566cf41f213p-1},  // 100 m
    {0x1.f5c28f5c28f5cp-1, 0x1.f3c0c1fc8f323p-1, 0x1.e1b089a027525p-1,
     0x1.b98c7e28240b7p-1, 0x1.7d566cf41f213p-1},  // 149.5 m
    {0x1.f5c28f5c28f5cp-1, 0x1.f3c0c1fc8f323p-1, 0x1.e1b089a027525p-1,
     0x1.b98c7e28240b7p-1, 0x1.7d566cf41f213p-1},  // 150 m
    {0x1.f5c28f5c28f5cp-1, 0x1.f3c0c1fc8f323p-1, 0x1.e1b089a027525p-1,
     0x1.b98c7e28240b7p-1, 0x1.7d566cf41f213p-1},  // 150.5 m
    {0x1.a15f6859d7059p-1, 0x1.9fb4049b043dep-1, 0x1.90ad82e59b388p-1,
     0x1.6f49b7fd239e8p-1, 0x1.3d3407a070377p-1},  // 175 m
    {0x1.3652206344395p-1, 0x1.35145ba674143p-1, 0x1.29e8710322c66p-1,
     0x1.11151242dfe08p-1, 0x1.d7b00844f70f7p-2},  // 200 m
    {0x1.a7c74ce335798p-2, 0x1.a61559e45919cp-2, 0x1.96d3ceee99bc5p-2,
     0x1.74ecd3056241fp-2, 0x1.421259278f0a7p-2},  // 225 m
    {0x1.ef97ae8a08179p-3, 0x1.ed9c31efe125dp-3, 0x1.dbc4d08482a5fp-3,
     0x1.b41f147977c2dp-3, 0x1.78a67a68e76e1p-3},  // 250 m
    {0x1.8d7b20a1d5943p-4, 0x1.8be41b61b2eecp-4, 0x1.7d94ec207b1dap-4,
     0x1.5dc8831dc6308p-4, 0x1.2e15e599b6ccdp-4},  // 275 m
    {0x1.4f663a65e5a97p-11, 0x1.4e0ec779f833p-11, 0x1.41fbbd2e9f091p-11,
     0x1.2726c2c011c85p-11, 0x1.fdce96347bce6p-12},  // 299.5 m
    {0.0, 0.0, 0.0, 0.0, 0.0},  // 300 m
    {0.0, 0.0, 0.0, 0.0, 0.0},  // 300.5 m
    {0.0, 0.0, 0.0, 0.0, 0.0},  // 310 m
};
constexpr std::size_t kPinnedSizes[] = {0, 64, 512, 1500};
constexpr std::size_t kPinnedDelayDensities[] = {0, 10, 60};
constexpr double kPinnedHopDelay[][3] = {
    // 0 B
    {0x1.a36e2eb1c432cp-15, 0x1.3a92a30553261p-12, 0x1.9652bd3c36113p-10},
    // 64 B
    {0x1.1bd087b4059d4p-13, 0x1.940d21091d6e6p-12, 0x1.acb15cbd28a34p-10},
    // 512 B
    {0x1.8020dafa45645p-11, 0x1.0199a4c8e95a1p-10, 0x1.24a3dca1e550ep-9},
    // 1500 B
    {0x1.0cb295e9e1b09p-9, 0x1.2d77318fc5048p-9, 0x1.d14e3bcd35a86p-9},
};

TEST(Channel, ReceptionProbabilityMatchesPinnedModel) {
  Channel ch;
  const geo::Vec2 from{10, 20};
  const auto to = [&](double d) {
    return geo::Vec2{from.x + 0.6 * d, from.y + 0.8 * d};
  };
  for (std::size_t i = 0; i < std::size(kPinnedDistances); ++i) {
    for (std::size_t j = 0; j < std::size(kPinnedDensities); ++j) {
      EXPECT_EQ(ch.reception_probability(from, to(kPinnedDistances[i]),
                                         kPinnedDensities[j]),
                kPinnedReception[i][j])
          << kPinnedDistances[i] << " m, density " << kPinnedDensities[j];
    }
  }
  // A blackout over the 150-250 m stretch zeroes exactly the receivers
  // inside it and leaves every other cell at its pinned value.
  const geo::Vec2 center = to(200);
  ch.add_blackout({center, 50.0});
  for (std::size_t i = 0; i < std::size(kPinnedDistances); ++i) {
    const geo::Vec2 rx = to(kPinnedDistances[i]);
    const bool dark = geo::distance(rx, center) <= 50.0;
    for (std::size_t j = 0; j < std::size(kPinnedDensities); ++j) {
      EXPECT_EQ(ch.reception_probability(from, rx, kPinnedDensities[j]),
                dark ? 0.0 : kPinnedReception[i][j])
          << kPinnedDistances[i] << " m, density " << kPinnedDensities[j]
          << ", blackout";
    }
  }
}

TEST(Channel, HopDelayMatchesPinnedModel) {
  const Channel ch;
  for (std::size_t i = 0; i < std::size(kPinnedSizes); ++i) {
    for (std::size_t j = 0; j < std::size(kPinnedDelayDensities); ++j) {
      EXPECT_EQ(ch.hop_delay(kPinnedSizes[i], kPinnedDelayDensities[j]),
                kPinnedHopDelay[i][j])
          << kPinnedSizes[i] << " B, density " << kPinnedDelayDensities[j];
    }
  }
}

TEST(RsuField, CoveringPicksNearestOnline) {
  RsuField field;
  const RsuId a = field.add({0, 0}, 300);
  const RsuId b = field.add({400, 0}, 300);
  const Rsu* r = field.covering({350, 0});
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->id, b);
  field.set_online(b, false);
  r = field.covering({350, 0});
  // a is 350 m away with 300 m range: uncovered now.
  EXPECT_EQ(r, nullptr);
  (void)a;
}

TEST(RsuField, FailAllAndRestore) {
  RsuField field;
  field.add({0, 0});
  field.add({100, 0});
  EXPECT_EQ(field.online_count(), 2u);
  field.fail_all();
  EXPECT_EQ(field.online_count(), 0u);
  EXPECT_EQ(field.covering({0, 0}), nullptr);
  field.restore_all();
  EXPECT_EQ(field.online_count(), 2u);
}

TEST(RsuField, PlaceGridCoversBoundingBox) {
  const auto net = geo::make_manhattan_grid(3, 3, 500.0);
  RsuField field;
  field.place_grid(net, 500.0, 400.0);
  EXPECT_EQ(field.count(), 9u);  // 3x3 grid of RSUs
}

class NetworkFixture : public ::testing::Test {
 protected:
  NetworkFixture()
      : road_(geo::make_manhattan_grid(3, 3, 200.0)),
        traffic_(road_, Rng(1)),
        net_(sim_, traffic_, Rng(2)) {}

  // Parks a vehicle at a fixed world position (via link 0 offsets).
  VehicleId park_at(double offset) {
    return traffic_.spawn_parked(LinkId{0}, offset);
  }

  geo::RoadNetwork road_;
  sim::Simulator sim_;
  mobility::TrafficModel traffic_;
  Network net_;
};

TEST_F(NetworkFixture, UnicastDeliversInRange) {
  const VehicleId a = park_at(0.0);
  const VehicleId b = park_at(100.0);
  net_.refresh();
  int received = 0;
  net_.set_default_vehicle_handler([&](VehicleId self, const Message& m) {
    ++received;
    EXPECT_EQ(self, b);
    EXPECT_EQ(m.src, Address::vehicle(a));
    EXPECT_EQ(m.hops, 1);
  });
  Message msg;
  msg.id = net_.next_message_id();
  msg.src = Address::vehicle(a);
  msg.dst = Address::vehicle(b);
  EXPECT_TRUE(net_.send(msg));
  sim_.run_until(1.0);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(net_.stats().unicast_delivered, 1u);
}

TEST_F(NetworkFixture, UnicastFailsOutOfRange) {
  const VehicleId a = park_at(0.0);
  // 200 m links: offset on a far link. Use grid node distances: put the
  // second vehicle on the opposite corner link (distance >> 300 m).
  const VehicleId b = traffic_.spawn_parked(LinkId{road_.link_count() - 1},
                                            100.0);
  net_.refresh();
  Message msg;
  msg.id = net_.next_message_id();
  msg.src = Address::vehicle(a);
  msg.dst = Address::vehicle(b);
  EXPECT_FALSE(net_.send(msg));
  EXPECT_EQ(net_.stats().dropped, 1u);
}

TEST_F(NetworkFixture, SendViaPreservesFinalDestination) {
  const VehicleId a = park_at(0.0);
  const VehicleId relay = park_at(150.0);
  const VehicleId b = park_at(190.0);
  net_.refresh();
  Address seen_dst;
  net_.set_default_vehicle_handler([&](VehicleId self, const Message& m) {
    if (self == relay) seen_dst = m.dst;
  });
  Message msg;
  msg.id = net_.next_message_id();
  msg.src = Address::vehicle(a);
  msg.dst = Address::vehicle(b);  // final destination
  EXPECT_TRUE(net_.send_via(msg, Address::vehicle(relay)));
  sim_.run_until(1.0);
  EXPECT_EQ(seen_dst, Address::vehicle(b));
}

TEST_F(NetworkFixture, BroadcastReachesNeighbors) {
  const VehicleId a = park_at(100.0);
  park_at(0.0);
  park_at(180.0);
  net_.refresh();
  Message msg;
  msg.id = net_.next_message_id();
  msg.src = Address::vehicle(a);
  msg.dst = Address::broadcast();
  const std::size_t reached = net_.broadcast(msg);
  EXPECT_EQ(reached, 2u);
}

TEST_F(NetworkFixture, DefaultVehicleHandlerReceives) {
  const VehicleId a = park_at(0.0);
  const VehicleId b = park_at(120.0);
  net_.refresh();
  VehicleId handled;
  net_.set_default_vehicle_handler(
      [&](VehicleId self, const Message&) { handled = self; });
  Message msg;
  msg.id = net_.next_message_id();
  msg.src = Address::vehicle(a);
  msg.dst = Address::vehicle(b);
  EXPECT_TRUE(net_.send(msg));
  sim_.run_until(1.0);
  EXPECT_EQ(handled, b);
}

TEST_F(NetworkFixture, BeaconsFillNeighborTables) {
  const VehicleId a = park_at(0.0);
  const VehicleId b = park_at(150.0);
  net_.start_beacons(1.0);
  sim_.run_until(2.5);
  const auto& na = net_.neighbors(a);
  ASSERT_EQ(na.size(), 1u);
  EXPECT_EQ(na[0].id, b);
  EXPECT_GT(na[0].last_heard, 0.0);
}

TEST_F(NetworkFixture, RsuCoversVehicle) {
  const VehicleId a = park_at(50.0);
  net_.rsus().add({60.0, 0.0}, 500.0);
  net_.refresh();
  EXPECT_NE(net_.reachable_rsu(a), nullptr);
  net_.rsus().fail_all();
  EXPECT_EQ(net_.reachable_rsu(a), nullptr);
}

TEST_F(NetworkFixture, VehicleToRsuUnicastUsesRsuRange) {
  const VehicleId a = park_at(0.0);
  const RsuId r = net_.rsus().add({450.0, 0.0}, 1200.0);
  net_.refresh();
  Message msg;
  msg.id = net_.next_message_id();
  msg.src = Address::vehicle(a);
  msg.dst = Address::rsu(r);
  // 450 m exceeds vehicle range (300) but sits well inside the RSU's reach.
  EXPECT_TRUE(net_.send(msg));
  EXPECT_EQ(net_.stats().unicast_delivered, 1u);
  EXPECT_EQ(net_.stats().dropped, 0u);
}

// An online RSU in range hears a broadcast: its reception is drawn from the
// fabric's stream and counted, though no handler listens on RSU addresses.
// The same broadcast with the RSU offline makes fewer draws, so every later
// draw of a run depends on the RSU loop staying whole.
TEST(NetworkRsu, BroadcastDrawsForOnlineRsuInRange) {
  const auto road = geo::make_manhattan_grid(3, 3, 200.0);
  const auto broadcast_with_rsu = [&](bool online) {
    sim::Simulator sim;
    mobility::TrafficModel traffic(road, Rng(1));
    Network net(sim, traffic, Rng(2));
    const VehicleId a = traffic.spawn_parked(LinkId{0}, 0.0);
    traffic.spawn_parked(LinkId{0}, 100.0);
    const RsuId r = net.rsus().add({50.0, 0.0}, 500.0);
    net.rsus().set_online(r, online);
    net.refresh();
    Message msg;
    msg.id = net.next_message_id();
    msg.src = Address::vehicle(a);
    msg.dst = Address::broadcast();
    const std::size_t reached = net.broadcast(msg);
    return std::pair{reached, net.rng()};
  };
  auto [reached_on, rng_on] = broadcast_with_rsu(true);
  auto [reached_off, rng_off] = broadcast_with_rsu(false);
  EXPECT_EQ(reached_on, reached_off + 1);
  int extra = 0;
  for (; extra < 8 && rng_off.engine() != rng_on.engine(); ++extra) {
    rng_off.engine().discard(1);
  }
  EXPECT_GE(extra, 1);
  EXPECT_EQ(rng_off.engine(), rng_on.engine());
}

TEST(MessageKind, Names) {
  EXPECT_STREQ(to_string(MessageKind::kBeacon), "beacon");
  EXPECT_STREQ(to_string(MessageKind::kTaskMigrate), "task_migrate");
}

TEST(Address, KeysDistinguishTypes) {
  EXPECT_NE(Address::vehicle(VehicleId{5}).key(),
            Address::rsu(RsuId{5}).key());
  EXPECT_EQ(Address::vehicle(VehicleId{5}),
            Address::vehicle(VehicleId{5}));
}

}  // namespace
}  // namespace vcl::net
