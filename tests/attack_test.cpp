#include <gtest/gtest.h>

#include "attack/adversary.h"
#include "attack/dos.h"
#include "attack/false_data.h"
#include "attack/replay.h"
#include "attack/suppression.h"
#include "attack/sybil.h"
#include "attack/tracker.h"
#include "trust/validators.h"

namespace vcl::attack {
namespace {

TEST(AdversaryRoster, RecruitsRequestedFraction) {
  const auto road = geo::make_manhattan_grid(3, 3, 200.0);
  mobility::TrafficModel traffic(road, Rng(1));
  for (int i = 0; i < 20; ++i) traffic.spawn_parked(LinkId{0}, i * 5.0);
  AdversaryRoster roster;
  Rng rng(2);
  roster.recruit(traffic, 0.25, rng);
  EXPECT_EQ(roster.size(), 5u);
  std::size_t found = 0;
  for (const auto& [vid, v] : traffic.vehicles()) {
    if (roster.is_malicious(v.id)) ++found;
  }
  EXPECT_EQ(found, 5u);
}

TEST(SybilFactoryTest, CredentialsDistinctAndReserved) {
  const auto creds =
      SybilFactory::credentials({VehicleId{1}, VehicleId{2}}, 10);
  EXPECT_EQ(creds.size(), 20u);
  std::set<std::uint64_t> unique(creds.begin(), creds.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const auto c : creds) EXPECT_GE(c, 1ULL << 48);
}

TEST(FalseData, FabricatedReportsLookPlausible) {
  FalseDataAttacker attacker({101, 102}, Rng(3));
  const auto reports =
      attacker.fabricate(trust::EventType::kAccident, {500, 500}, 10.0, 6);
  EXPECT_EQ(reports.size(), 6u);
  for (const auto& r : reports) {
    EXPECT_TRUE(r.positive);
    EXPECT_FALSE(r.truthful);
    EXPECT_FALSE(r.truth_event.valid());  // no real event behind it
    EXPECT_LT(geo::distance(r.location, {500, 500}), 50.0);
  }
  // Credentials cycle over the controlled pool.
  EXPECT_NE(reports[0].reporter_credential, reports[1].reporter_credential);
}

TEST(FalseData, DenialsTargetRealEvent) {
  FalseDataAttacker attacker({101}, Rng(4));
  trust::GroundTruthEvent ev;
  ev.id = EventId{9};
  ev.type = trust::EventType::kIce;
  ev.location = {100, 100};
  const auto reports = attacker.deny(ev, 5.0, 3);
  for (const auto& r : reports) {
    EXPECT_FALSE(r.positive);
    EXPECT_EQ(r.truth_event, EventId{9});
  }
}

TEST(FalseData, SybilAmplifiedAttackSwaysMajority) {
  // 5 honest positive witnesses vs 1 attacker with 20 Sybil credentials.
  trust::EventCluster c;
  c.centroid = {0, 0};
  for (int i = 0; i < 5; ++i) {
    trust::Report r;
    r.positive = true;
    r.reporter_credential = static_cast<std::uint64_t>(i + 1);
    r.reporter_pos = {10, 0};
    c.reports.push_back(r);
  }
  const auto sybils = SybilFactory::credentials({VehicleId{66}}, 20);
  FalseDataAttacker attacker(sybils, Rng(5));
  trust::GroundTruthEvent ev;
  ev.location = {0, 0};
  for (auto& r : attacker.deny(ev, 0.0, 20)) c.reports.push_back(r);
  const trust::MajorityVote majority;
  EXPECT_FALSE(majority.evaluate(c).accepted);  // attack succeeds
}

// ---- Replay -----------------------------------------------------------------

class ReplayFixture : public ::testing::Test {
 protected:
  ReplayFixture() : ta_(1) {
    ta_.register_vehicle(VehicleId{1});
    signer_ = std::make_unique<auth::PseudonymAuth>(ta_, VehicleId{1}, 4);
  }
  auth::TrustedAuthority ta_;
  std::unique_ptr<auth::PseudonymAuth> signer_;
  crypto::OpCounts ops_;
};

TEST_F(ReplayFixture, ReplayedMessageStillVerifies) {
  const crypto::Bytes payload{1, 2, 3};
  const auto tag = signer_->sign(payload, 0.0, ops_);
  ReplayAttacker attacker;
  attacker.capture(payload, *tag, 0.0);
  // Much later, the replayed message still passes signature verification —
  // authentication alone cannot stop replays.
  const auto& captured = attacker.log().front();
  EXPECT_TRUE(
      auth::PseudonymAuth::verify(ta_, captured.payload, captured.tag).ok);
}

TEST_F(ReplayFixture, FreshnessCheckerStopsReplay) {
  FreshnessChecker checker(2.0);
  const crypto::Bytes body{9};
  const auto fresh = make_fresh_payload(body, 100.0, 424242);
  EXPECT_TRUE(checker.accept(fresh, 100.1));
  // Same nonce replayed within the window: duplicate.
  EXPECT_FALSE(checker.accept(fresh, 100.5));
  EXPECT_EQ(checker.rejected_duplicate(), 1u);
  // Replayed much later: stale.
  EXPECT_FALSE(checker.accept(fresh, 200.0));
  EXPECT_EQ(checker.rejected_stale(), 1u);
}

TEST_F(ReplayFixture, FreshMessagesKeepFlowing) {
  FreshnessChecker checker(2.0);
  for (int i = 0; i < 10; ++i) {
    const auto p = make_fresh_payload({1}, 10.0 + i,
                                      static_cast<std::uint64_t>(1000 + i));
    EXPECT_TRUE(checker.accept(p, 10.0 + i));
  }
}

TEST(Freshness, MalformedPayloadRejected) {
  FreshnessChecker checker;
  EXPECT_FALSE(checker.accept(crypto::Bytes{1, 2}, 0.0));
}

// ---- Suppression ---------------------------------------------------------------

TEST(Suppression, MaliciousRelaysBreakDelivery) {
  // Chain of parked vehicles; the middle relays are malicious.
  geo::RoadNetwork road;
  auto prev = road.add_node({0, 0});
  for (int i = 1; i <= 4; ++i) {
    const auto n = road.add_node({450.0 * i, 0});
    road.add_link(prev, n, 14.0);
    prev = n;
  }
  sim::Simulator sim;
  mobility::TrafficModel traffic(road, Rng(1));
  net::Network net(sim, traffic, Rng(2));
  std::vector<VehicleId> chain;
  for (int i = 0; i <= 10; ++i) {
    const double pos = i * 150.0;
    const auto link = LinkId{static_cast<std::uint64_t>(i / 3)};
    chain.push_back(traffic.spawn_parked(link, pos - 450.0 * (i / 3)));
  }
  net.start_beacons(0.5);

  AdversaryRoster roster;
  for (int i = 3; i <= 7; ++i) roster.add(chain[static_cast<std::size_t>(i)]);
  SuppressedGreedyRouter router(net, roster, SuppressionConfig{1.0, 0.0},
                                Rng(3));
  router.attach();
  net.refresh();
  for (int i = 0; i < 5; ++i) router.originate(chain.front(), chain.back());
  sim.run_until(20.0);
  EXPECT_DOUBLE_EQ(router.metrics().delivery_ratio(), 0.0);
  EXPECT_GT(router.suppressed(), 0u);
}

TEST(Suppression, DelayVariantEventuallyDelivers) {
  geo::RoadNetwork road;
  auto a = road.add_node({0, 0});
  auto b = road.add_node({600, 0});
  road.add_link(a, b, 14.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(road, Rng(1));
  net::Network net(sim, traffic, Rng(2));
  const auto src = traffic.spawn_parked(LinkId{0}, 0.0);
  const auto mid = traffic.spawn_parked(LinkId{0}, 250.0);
  const auto dst = traffic.spawn_parked(LinkId{0}, 500.0);
  net.start_beacons(0.5);
  AdversaryRoster roster;
  roster.add(mid);
  SuppressedGreedyRouter router(net, roster, SuppressionConfig{0.0, 3.0},
                                Rng(3));
  router.attach();
  net.refresh();
  router.originate(src, dst);
  sim.run_until(2.0);
  EXPECT_DOUBLE_EQ(router.metrics().delivery_ratio(), 0.0);  // still held
  sim.run_until(20.0);
  EXPECT_DOUBLE_EQ(router.metrics().delivery_ratio(), 1.0);  // late arrival
  EXPECT_GT(router.metrics().delay().mean(), 3.0);
}

// ---- DoS ------------------------------------------------------------------------

TEST(Dos, FloodingDegradesNeighborReception) {
  const auto road = geo::make_manhattan_grid(2, 2, 200.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(road, Rng(1));
  net::Network net(sim, traffic, Rng(2));
  const auto victim_a = traffic.spawn_parked(LinkId{0}, 0.0);
  const auto victim_b = traffic.spawn_parked(LinkId{0}, 150.0);
  const auto flooder = traffic.spawn_parked(LinkId{0}, 75.0);
  net.refresh();

  auto send_many = [&] {
    int delivered = 0;
    for (int i = 0; i < 200; ++i) {
      net::Message m;
      m.id = net.next_message_id();
      m.src = net::Address::vehicle(victim_a);
      m.dst = net::Address::vehicle(victim_b);
      if (net.send(m)) ++delivered;
    }
    return delivered;
  };

  const int before = send_many();
  AdversaryRoster roster;
  roster.add(flooder);
  DosFlooder dos(net, roster, 400.0);
  dos.start();
  sim.run_until(sim.now() + 3.0);  // let the junk broadcasts fire
  const int during = send_many();
  EXPECT_LT(during, before - 20);  // measurable degradation
  dos.stop();
  sim.run_until(sim.now() + 1.0);
  const int after = send_many();
  EXPECT_GT(after, during);
  EXPECT_GT(dos.junk_sent(), 0u);
}

// ---- Tracking --------------------------------------------------------------------

TEST(Tracker, StableIdsFullyTracked) {
  std::vector<auth::AirObservation> obs;
  for (int v = 0; v < 3; ++v) {
    for (int t = 0; t < 10; ++t) {
      obs.push_back({t * 1.0,
                     {v * 1000.0 + t * 10.0, 0},
                     static_cast<std::uint64_t>(100 + v),
                     VehicleId{static_cast<std::uint64_t>(v)}});
    }
  }
  const TrackingAdversary adversary;
  const auto score = adversary.analyze(obs);
  EXPECT_GT(score.link_recall, 0.9);
  EXPECT_GT(score.link_precision, 0.9);
}

TEST(Tracker, KinematicLinkingDefeatsNaiveRotation) {
  // One isolated vehicle rotating pseudonyms every observation: position
  // continuity still links it.
  std::vector<auth::AirObservation> obs;
  for (int t = 0; t < 10; ++t) {
    obs.push_back({t * 1.0,
                   {t * 20.0, 0},
                   static_cast<std::uint64_t>(500 + t),  // fresh id each time
                   VehicleId{1}});
  }
  const TrackingAdversary adversary;
  const auto score = adversary.analyze(obs);
  EXPECT_GT(score.link_recall, 0.9);
  // Faster than the kinematic bound (40 m/s plus 15 m of slack), the same
  // rotation wins: no observation is chained to the one before.
  for (auto& o : obs) o.pos.x *= 5.0;
  EXPECT_DOUBLE_EQ(adversary.analyze(obs).link_recall, 0.0);
}

TEST(Tracker, CrowdsConfuseKinematicLinking) {
  // Many vehicles moving together with rotating ids: precision collapses.
  std::vector<auth::AirObservation> obs;
  Rng rng(9);
  for (int t = 0; t < 8; ++t) {
    for (int v = 0; v < 12; ++v) {
      obs.push_back({t * 1.0,
                     {t * 20.0 + rng.uniform(-5, 5), rng.uniform(-5, 5)},
                     static_cast<std::uint64_t>(1000 + t * 100 + v),
                     VehicleId{static_cast<std::uint64_t>(v)}});
    }
  }
  const TrackingAdversary adversary;
  const auto score = adversary.analyze(obs);
  EXPECT_LT(score.link_precision, 0.6);
}

}  // namespace
}  // namespace vcl::attack
