// Tests for the §V extension features: result aggregation, the secure
// bootstrap protocol, and cluster split/merge tracking.
#include <gtest/gtest.h>

#include "cluster/speed_clustering.h"
#include "cluster/stability.h"
#include "core/bootstrap.h"
#include "core/scenario.h"
#include "vcloud/aggregate.h"
#include "vcloud/cloudlet.h"

namespace vcl {
namespace {

// ---- Aggregation ---------------------------------------------------------------

class AggregateFixture : public ::testing::Test {
 protected:
  AggregateFixture()
      : road_(geo::make_manhattan_grid(3, 3, 200.0)),
        traffic_(road_, Rng(1)),
        net_(sim_, traffic_, Rng(2)) {}

  std::unique_ptr<vcloud::VehicularCloud> make_cloud(int members) {
    for (int i = 0; i < members; ++i) {
      traffic_.spawn_parked(LinkId{0}, 10.0 * i);
    }
    net_.refresh();
    auto cloud = std::make_unique<vcloud::VehicularCloud>(
        CloudId{1}, net_,
        vcloud::stationary_membership(traffic_, {100, 0}, 500.0),
        vcloud::fixed_region({100, 0}, 500.0),
        std::make_unique<vcloud::GreedyResourceScheduler>(),
        vcloud::CloudConfig{}, Rng(3));
    cloud->refresh();
    return cloud;
  }

  geo::RoadNetwork road_;
  sim::Simulator sim_;
  mobility::TrafficModel traffic_;
  net::Network net_;
};

TEST_F(AggregateFixture, JobCompletesWhenAllPartsDo) {
  auto cloud = make_cloud(5);
  vcloud::Aggregator aggregator(*cloud);
  aggregator.attach(sim_);
  vcloud::AggregateJobSpec spec;
  spec.total_work = 50.0;
  spec.parts = 8;
  const TaskId job = aggregator.submit(spec);
  ASSERT_NE(aggregator.status(job), nullptr);
  EXPECT_FALSE(aggregator.status(job)->completed);
  EXPECT_FALSE(aggregator.status(job)->failed);
  // Keep dispatching as workers free up.
  sim_.schedule_every(1.0, [&] { cloud->refresh(); });
  sim_.run_until(300.0);
  const auto* status = aggregator.status(job);
  ASSERT_NE(status, nullptr);
  EXPECT_TRUE(status->completed);
  EXPECT_EQ(status->parts_completed, 8u);
  EXPECT_EQ(status->parts_failed, 0u);
  EXPECT_NE(status->result_root, crypto::Digest{});
}

TEST_F(AggregateFixture, JobFailsWhenPartsExpire) {
  auto cloud = make_cloud(1);
  vcloud::Aggregator aggregator(*cloud);
  aggregator.attach(sim_);
  vcloud::AggregateJobSpec spec;
  spec.total_work = 10000.0;  // cannot finish
  spec.parts = 4;
  spec.deadline = 10.0;
  const TaskId job = aggregator.submit(spec);
  sim_.schedule_every(1.0, [&] { cloud->refresh(); });
  sim_.run_until(60.0);
  const auto* status = aggregator.status(job);
  ASSERT_NE(status, nullptr);
  EXPECT_TRUE(status->failed);
  EXPECT_FALSE(status->completed);
  EXPECT_GT(status->parts_failed, 0u);
}

TEST_F(AggregateFixture, ResultRootIsDeterministicPerCompletion) {
  auto cloud = make_cloud(4);
  vcloud::Aggregator aggregator(*cloud);
  vcloud::AggregateJobSpec spec;
  spec.total_work = 20.0;
  spec.parts = 4;
  const TaskId job = aggregator.submit(spec);
  sim_.schedule_every(1.0, [&] {
    cloud->refresh();
    aggregator.poll(sim_.now());
  });
  sim_.run_until(120.0);
  const auto* status = aggregator.status(job);
  ASSERT_TRUE(status->completed);
  const crypto::Digest root = status->result_root;
  aggregator.poll(sim_.now());  // re-polling must not change the root
  EXPECT_EQ(aggregator.status(job)->result_root, root);
}

TEST_F(AggregateFixture, MultipleConcurrentJobs) {
  auto cloud = make_cloud(6);
  vcloud::Aggregator aggregator(*cloud);
  aggregator.attach(sim_);
  std::vector<TaskId> jobs;
  for (int i = 0; i < 3; ++i) {
    vcloud::AggregateJobSpec spec;
    spec.total_work = 30.0;
    spec.parts = 5;
    jobs.push_back(aggregator.submit(spec));
  }
  sim_.schedule_every(1.0, [&] { cloud->refresh(); });
  sim_.run_until(600.0);
  for (const TaskId job : jobs) {
    EXPECT_TRUE(aggregator.status(job)->completed);
  }
}

// ---- Bootstrap -------------------------------------------------------------------

TEST(Bootstrap, VehiclesJoinViaRsu) {
  core::ScenarioConfig cfg;
  cfg.vehicles = 30;
  cfg.seed = 3;
  cfg.rsu_spacing = 500.0;  // full coverage
  core::Scenario scenario(cfg);
  scenario.start();
  auth::TrustedAuthority ta(1);
  core::BootstrapProtocol bootstrap(scenario.network(), ta);
  bootstrap.attach();
  scenario.run_for(20.0);
  EXPECT_GE(bootstrap.joined_count(), 25u);
  EXPECT_GT(bootstrap.via_rsu_count(), 0u);
  EXPECT_GT(bootstrap.join_latency().mean(), 0.0);
  // Joined vehicles can sign immediately.
  for (const auto& [vid, v] : scenario.traffic().vehicles()) {
    if (!bootstrap.joined(v.id)) continue;
    auto* signer = bootstrap.signer(v.id);
    ASSERT_NE(signer, nullptr);
    crypto::OpCounts ops;
    const auto tag = signer->sign({1, 2}, scenario.simulator().now(), ops);
    ASSERT_TRUE(tag.has_value());
    EXPECT_TRUE(auth::PseudonymAuth::verify(ta, {1, 2}, *tag).ok);
    break;
  }
}

TEST(Bootstrap, RelayJoinWithoutInfrastructure) {
  // No RSUs: the first vehicles cannot join until someone is joined; seed
  // one vehicle manually via a temporary RSU, then remove it.
  core::ScenarioConfig cfg;
  cfg.vehicles = 30;
  cfg.seed = 4;
  core::Scenario scenario(cfg);
  scenario.start();
  auth::TrustedAuthority ta(1);
  const auto [lo, hi] = scenario.road().bounding_box();
  const RsuId seed_rsu = scenario.network().rsus().add(
      {(lo.x + hi.x) / 2, (lo.y + hi.y) / 2}, 400.0);
  core::BootstrapProtocol bootstrap(scenario.network(), ta);
  bootstrap.attach();
  scenario.run_for(10.0);
  scenario.network().rsus().set_online(seed_rsu, false);
  scenario.run_for(60.0);
  // Relay joins must have happened (seed RSU covered only the center).
  EXPECT_GT(bootstrap.via_relay_count(), 0u);
  EXPECT_GE(bootstrap.joined_count(), 15u);
}

TEST(Bootstrap, NobodyJoinsWithNoTrustPath) {
  core::ScenarioConfig cfg;
  cfg.vehicles = 20;
  cfg.seed = 5;
  core::Scenario scenario(cfg);  // no RSUs, nobody joined
  scenario.start();
  auth::TrustedAuthority ta(1);
  core::BootstrapProtocol bootstrap(scenario.network(), ta);
  bootstrap.attach();
  scenario.run_for(30.0);
  EXPECT_EQ(bootstrap.joined_count(), 0u);
}

TEST(Bootstrap, SessionKeysAgree) {
  core::ScenarioConfig cfg;
  cfg.vehicles = 10;
  cfg.seed = 6;
  cfg.rsu_spacing = 400.0;
  core::Scenario scenario(cfg);
  scenario.start();
  auth::TrustedAuthority ta(1);
  core::BootstrapProtocol bootstrap(scenario.network(), ta);
  bootstrap.attach();
  scenario.run_for(20.0);
  std::vector<VehicleId> joined;
  for (const auto& [vid, v] : scenario.traffic().vehicles()) {
    if (bootstrap.joined(v.id)) joined.push_back(v.id);
  }
  ASSERT_GE(joined.size(), 2u);
  const auto kab = bootstrap.session_key(joined[0], joined[1]);
  const auto kba = bootstrap.session_key(joined[1], joined[0]);
  ASSERT_TRUE(kab.has_value());
  ASSERT_TRUE(kba.has_value());
  EXPECT_TRUE(crypto::digest_equal(*kab, *kba));
  // Distinct pairs get distinct keys.
  if (joined.size() >= 3) {
    const auto kac = bootstrap.session_key(joined[0], joined[2]);
    EXPECT_FALSE(crypto::digest_equal(*kab, *kac));
  }
}

TEST(Bootstrap, UnjoinedHaveNoSessionKey) {
  core::ScenarioConfig cfg;
  cfg.vehicles = 5;
  core::Scenario scenario(cfg);
  scenario.start();
  auth::TrustedAuthority ta(1);
  core::BootstrapProtocol bootstrap(scenario.network(), ta);
  EXPECT_FALSE(
      bootstrap.session_key(VehicleId{0}, VehicleId{1}).has_value());
}

// ---- Split / merge tracking ---------------------------------------------------

class SplitMergeFixture : public ::testing::Test {
 protected:
  SplitMergeFixture()
      : road_(geo::make_manhattan_grid(2, 12, 400.0)),
        traffic_(road_, Rng(1)),
        net_(sim_, traffic_, Rng(2)) {}

  geo::RoadNetwork road_;
  sim::Simulator sim_;
  mobility::TrafficModel traffic_;
  net::Network net_;
};

TEST_F(SplitMergeFixture, MergeDetectedWhenGroupsJoin) {
  // Two separate parked groups; then teleport group B next to group A.
  std::vector<VehicleId> group_b;
  for (double off : {0.0, 40.0, 80.0}) traffic_.spawn_parked(LinkId{0}, off);
  for (double off : {0.0, 40.0, 80.0}) {
    group_b.push_back(traffic_.spawn_parked(LinkId{8}, off));  // far away
  }
  for (int i = 0; i < 3; ++i) net_.refresh();  // tolerate beacon loss
  cluster::SpeedClustering mgr(net_);
  cluster::StabilityTracker tracker(mgr);
  mgr.update();
  tracker.observe(0.0);
  ASSERT_EQ(mgr.clusters().size(), 2u);

  // Teleport B next to A.
  for (std::size_t i = 0; i < group_b.size(); ++i) {
    auto* v = traffic_.find_mutable(group_b[i]);
    v->link = LinkId{0};
    v->offset = 120.0 + 40.0 * static_cast<double>(i);
  }
  // Refresh world positions (parked vehicles are not advanced by step()).
  traffic_.step(0.01);
  for (int i = 0; i < 3; ++i) net_.refresh();
  mgr.update();
  tracker.observe(1.0);
  EXPECT_EQ(mgr.clusters().size(), 1u);
  EXPECT_GE(tracker.merges(), 1u);
  EXPECT_EQ(tracker.splits(), 0u);
}

TEST_F(SplitMergeFixture, SplitDetectedWhenGroupSeparates) {
  std::vector<VehicleId> all;
  for (double off : {0.0, 40.0, 80.0, 120.0, 160.0, 200.0}) {
    all.push_back(traffic_.spawn_parked(LinkId{0}, off));
  }
  net_.refresh();
  cluster::SpeedClustering mgr(net_);
  cluster::StabilityTracker tracker(mgr);
  mgr.update();
  tracker.observe(0.0);
  ASSERT_EQ(mgr.clusters().size(), 1u);

  // Move half the group far away.
  for (std::size_t i = 3; i < all.size(); ++i) {
    auto* v = traffic_.find_mutable(all[i]);
    v->link = LinkId{8};
    v->offset = 40.0 * static_cast<double>(i - 3);
  }
  traffic_.step(0.01);
  for (int i = 0; i < 5; ++i) net_.refresh();  // old entries expire (ttl 3s)
  sim_.run_until(5.0);
  net_.refresh();
  mgr.update();
  tracker.observe(5.0);
  EXPECT_EQ(mgr.clusters().size(), 2u);
  EXPECT_GE(tracker.splits() + tracker.merges(), 1u);
}

TEST_F(SplitMergeFixture, StableSceneHasNoEvents) {
  for (double off : {0.0, 40.0, 80.0}) traffic_.spawn_parked(LinkId{0}, off);
  net_.refresh();
  cluster::SpeedClustering mgr(net_);
  cluster::StabilityTracker tracker(mgr);
  for (int round = 0; round < 10; ++round) {
    net_.refresh();
    mgr.update();
    tracker.observe(static_cast<double>(round));
  }
  EXPECT_EQ(tracker.merges(), 0u);
  EXPECT_EQ(tracker.splits(), 0u);
}

// ---- Cloudlets ---------------------------------------------------------------

class CloudletFixture : public ::testing::Test {
 protected:
  CloudletFixture() {
    core::ScenarioConfig cfg;
    cfg.vehicles = 50;
    cfg.seed = 8;
    cfg.rsu_spacing = 600.0;
    cfg.rsu_range = 350.0;  // partial coverage: some vehicles uncovered
    scenario_ = std::make_unique<core::Scenario>(cfg);
    scenario_->start();
    grid_ = std::make_unique<vcloud::CloudletGrid>(scenario_->network(),
                                                   scenario_->fork_rng(44));
    grid_->attach();
  }
  std::unique_ptr<core::Scenario> scenario_;
  std::unique_ptr<vcloud::CloudletGrid> grid_;
};

TEST_F(CloudletFixture, OneCloudPerRsu) {
  EXPECT_EQ(grid_->cloudlets().size(),
            scenario_->network().rsus().count());
}

TEST_F(CloudletFixture, CoveredVehiclesGetLocalCloudlet) {
  scenario_->run_for(2.0);
  std::size_t covered = 0;
  for (const auto& [vid, v] : scenario_->traffic().vehicles()) {
    if (grid_->cloudlet_for(v.id) != nullptr) ++covered;
  }
  EXPECT_GT(covered, 0u);
}

TEST_F(CloudletFixture, SubmitPrefersLocalFallsBackToCentral) {
  scenario_->run_for(2.0);
  std::size_t local = 0;
  std::size_t central = 0;
  for (const auto& [vid, v] : scenario_->traffic().vehicles()) {
    vcloud::Task t;
    t.work = 2.0;
    const auto result = grid_->submit(v.id, std::move(t));
    (result.to_central ? central : local) += 1;
  }
  EXPECT_GT(local, 0u);
  EXPECT_GT(central, 0u);  // partial coverage forces some central offloads
  scenario_->run_for(120.0);
  std::size_t cloudlet_completed = 0;
  for (const auto& cloud : grid_->cloudlets()) {
    cloudlet_completed += cloud->stats().completed;
  }
  EXPECT_GT(cloudlet_completed, 0u);
  EXPECT_EQ(grid_->central().completed, grid_->central().submitted);
  // Central latency includes the WAN round trip.
  EXPECT_GE(grid_->central().latency.min(), 0.08);
}

TEST_F(CloudletFixture, RoamingCountsHandoffsNotAttaches) {
  scenario_->run_for(120.0);
  // Moving vehicles crossing 600 m-spaced cloudlets must hand off.
  EXPECT_GT(grid_->handoffs(), 0u);
}

TEST_F(CloudletFixture, CentralMeetsDeadlinesItCanMeet) {
  scenario_->run_for(2.0);
  // Find an uncovered vehicle for a central submission with a deadline.
  VehicleId uncovered;
  for (const auto& [vid, v] : scenario_->traffic().vehicles()) {
    if (grid_->cloudlet_for(v.id) == nullptr) {
      uncovered = v.id;
      break;
    }
  }
  if (!uncovered.valid()) GTEST_SKIP() << "full coverage this seed";
  vcloud::Task ok;
  ok.work = 1.0;
  ok.deadline = scenario_->simulator().now() + 30.0;
  ASSERT_TRUE(grid_->submit(uncovered, std::move(ok)).to_central);
  vcloud::Task impossible;
  impossible.work = 1.0;
  impossible.deadline = scenario_->simulator().now() + 0.01;  // < WAN RTT
  ASSERT_TRUE(grid_->submit(uncovered, std::move(impossible)).to_central);
  scenario_->run_for(40.0);
  EXPECT_EQ(grid_->central().completed, 1u);  // the impossible one expired
}

}  // namespace
}  // namespace vcl
