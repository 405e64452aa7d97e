// Edge cases and robustness tests across modules.
#include <gtest/gtest.h>

#include "core/scenario.h"
#include "core/system.h"
#include "net/dissemination.h"
#include "routing/greedy_geo.h"
#include "vcloud/cloud.h"

namespace vcl {
namespace {

// ---- Mobility edges -------------------------------------------------------------

TEST(LaneChange, FastFollowerEscapesSlowLeader) {
  // Multi-lane highway: a crawling leader and a fast follower on lane 0.
  const auto road = geo::make_highway(3000.0, 1000.0, 33.3, 3);
  mobility::TrafficModel traffic(road, Rng(3));
  const auto leader = traffic.spawn({LinkId{0}, LinkId{1}}, 2.0,
                                    mobility::AutomationLevel::kNoAutomation,
                                    0.05);  // crawls at ~1.7 m/s
  traffic.find_mutable(leader)->offset = 150.0;
  const auto follower = traffic.spawn({LinkId{0}, LinkId{1}}, 25.0);
  bool changed_lane = false;
  for (int i = 0; i < 1200; ++i) {
    traffic.step(0.1);
    const auto* f = traffic.find(follower);
    if (f == nullptr) break;
    if (f->lane != 0) changed_lane = true;
  }
  EXPECT_TRUE(changed_lane);
}

TEST(Mobility, ZeroVehicleStepIsSafe) {
  const auto road = geo::make_manhattan_grid(2, 2, 100.0);
  mobility::TrafficModel traffic(road, Rng(1));
  traffic.step(0.1);  // must not crash
  EXPECT_EQ(traffic.vehicle_count(), 0u);
  EXPECT_EQ(traffic.find(VehicleId{42}), nullptr);
}

TEST(Mobility, DespawnDuringStepViaHandler) {
  // Arrival handler that declines re-routing: vehicle removed mid-step.
  geo::RoadNetwork road;
  const auto a = road.add_node({0, 0});
  const auto b = road.add_node({50, 0});
  road.add_link(a, b, 30.0);
  mobility::TrafficModel traffic(road, Rng(1));
  traffic.set_arrival_handler(
      [](const mobility::VehicleState&)
          -> std::optional<std::vector<LinkId>> { return std::nullopt; });
  traffic.spawn({LinkId{0}}, 20.0);
  for (int i = 0; i < 100; ++i) traffic.step(0.1);
  EXPECT_EQ(traffic.vehicle_count(), 0u);
}

// ---- Scale sanity -----------------------------------------------------------------

TEST(Scale, ThreeHundredVehiclesSimulate) {
  core::ScenarioConfig cfg;
  cfg.vehicles = 300;
  cfg.grid_rows = 8;
  cfg.grid_cols = 8;
  cfg.seed = 99;
  core::Scenario scenario(cfg);
  scenario.run_for(30.0);
  EXPECT_GE(scenario.traffic().vehicle_count(), 280u);
  // Neighbor tables exist and the fabric works at scale.
  routing::GreedyGeo router(scenario.network());
  router.attach();
  scenario.network().refresh();
  std::vector<VehicleId> ids;
  for (const auto& [vid, v] : scenario.traffic().vehicles()) {
    ids.push_back(v.id);
  }
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i + 1 < ids.size(); i += 40) {
    router.originate(ids[i], ids[i + 1]);
  }
  scenario.run_for(20.0);
  EXPECT_GT(router.metrics().delivery_ratio(), 0.5);
}

// ---- Cloud edges ------------------------------------------------------------------

TEST(CloudEdge, SubmitWithNoMembersQueues) {
  const auto road = geo::make_manhattan_grid(2, 2, 100.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(road, Rng(1));
  net::Network net(sim, traffic, Rng(2));
  vcloud::VehicularCloud cloud(
      CloudId{1}, net, [] { return std::vector<VehicleId>{}; },
      vcloud::fixed_region({0, 0}, 100.0),
      std::make_unique<vcloud::RandomScheduler>(), vcloud::CloudConfig{},
      Rng(3));
  cloud.refresh();
  vcloud::Task t;
  t.work = 1.0;
  const TaskId id = cloud.submit(std::move(t));
  sim.run_until(10.0);
  cloud.refresh();
  EXPECT_EQ(cloud.find_task(id)->state, vcloud::TaskState::kPending);
  EXPECT_EQ(cloud.pending_count(), 1u);
  EXPECT_FALSE(cloud.broker().valid());
}

TEST(CloudEdge, MembersArrivingLaterDrainTheQueue) {
  const auto road = geo::make_manhattan_grid(2, 2, 100.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(road, Rng(1));
  net::Network net(sim, traffic, Rng(2));
  vcloud::VehicularCloud cloud(
      CloudId{1}, net, vcloud::stationary_membership(traffic, {0, 0}, 500.0),
      vcloud::fixed_region({0, 0}, 500.0),
      std::make_unique<vcloud::RandomScheduler>(), vcloud::CloudConfig{},
      Rng(3));
  cloud.refresh();
  vcloud::Task t;
  t.work = 2.0;
  cloud.submit(std::move(t));
  EXPECT_EQ(cloud.pending_count(), 1u);
  traffic.spawn_parked(LinkId{0}, 10.0);  // capacity arrives late
  net.refresh();
  cloud.refresh();
  sim.run_until(30.0);
  EXPECT_EQ(cloud.stats().completed, 1u);
}

TEST(CloudEdge, ZeroWorkTaskCompletesImmediately) {
  const auto road = geo::make_manhattan_grid(2, 2, 100.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(road, Rng(1));
  net::Network net(sim, traffic, Rng(2));
  traffic.spawn_parked(LinkId{0}, 10.0);
  net.refresh();
  vcloud::VehicularCloud cloud(
      CloudId{1}, net, vcloud::stationary_membership(traffic, {0, 0}, 500.0),
      vcloud::fixed_region({0, 0}, 500.0),
      std::make_unique<vcloud::RandomScheduler>(), vcloud::CloudConfig{},
      Rng(3));
  cloud.refresh();
  vcloud::Task t;
  t.work = 0.0;
  t.input_mb = 0.0;
  const TaskId id = cloud.submit(std::move(t));
  sim.run_until(1.0);
  EXPECT_EQ(cloud.find_task(id)->state, vcloud::TaskState::kCompleted);
}

// ---- Network edges -----------------------------------------------------------------

TEST(NetworkEdge, SendToDespawnedVehicleDrops) {
  const auto road = geo::make_manhattan_grid(2, 2, 100.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(road, Rng(1));
  net::Network net(sim, traffic, Rng(2));
  const auto a = traffic.spawn_parked(LinkId{0}, 0.0);
  const auto b = traffic.spawn_parked(LinkId{0}, 50.0);
  net.refresh();
  traffic.despawn(b);
  net::Message msg;
  msg.id = net.next_message_id();
  msg.src = net::Address::vehicle(a);
  msg.dst = net::Address::vehicle(b);
  EXPECT_FALSE(net.send(msg));
  EXPECT_EQ(net.stats().dropped, 1u);
}

TEST(NetworkEdge, BroadcastFromGhostReachesNobody) {
  const auto road = geo::make_manhattan_grid(2, 2, 100.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(road, Rng(1));
  net::Network net(sim, traffic, Rng(2));
  net::Message msg;
  msg.id = net.next_message_id();
  msg.src = net::Address::vehicle(VehicleId{404});
  msg.dst = net::Address::broadcast();
  EXPECT_EQ(net.broadcast(msg), 0u);
}

TEST(NetworkEdge, SelfSendDoesNotLoop) {
  const auto road = geo::make_manhattan_grid(2, 2, 100.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(road, Rng(1));
  net::Network net(sim, traffic, Rng(2));
  const auto a = traffic.spawn_parked(LinkId{0}, 0.0);
  net.refresh();
  int received = 0;
  net.set_default_vehicle_handler(
      [&](VehicleId, const net::Message&) { ++received; });
  net::Message msg;
  msg.id = net.next_message_id();
  msg.src = net::Address::vehicle(a);
  msg.dst = net::Address::vehicle(a);
  (void)net.send(msg);  // distance 0: delivered to itself, once
  sim.run_until(1.0);
  EXPECT_LE(received, 1);
}

// ---- System edges ------------------------------------------------------------------

TEST(SystemEdge, HighwayEnvironmentWorks) {
  core::SystemConfig cfg;
  cfg.scenario.environment = core::Environment::kHighway;
  cfg.scenario.vehicles = 40;
  cfg.scenario.seed = 77;
  core::VehicularCloudSystem system(cfg);
  system.start();
  vcloud::Task t;
  t.work = 3.0;
  system.cloud().submit(t);
  system.run_for(60.0);
  EXPECT_GE(system.cloud().stats().completed, 0u);  // no crash; cloud runs
  EXPECT_GT(system.scenario().traffic().vehicle_count(), 10u);
}

TEST(DisseminationEdge, EmptySlotIsIdempotent) {
  net::DisseminationScheduler sched(net::DisseminationPolicy::kDeficitFair);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(sched.serve_slot(i).valid());
  }
  EXPECT_EQ(sched.served_requests(), 0u);
  EXPECT_DOUBLE_EQ(sched.jain_fairness(), 1.0);
}

}  // namespace
}  // namespace vcl
