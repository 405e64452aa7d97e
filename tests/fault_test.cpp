#include <gtest/gtest.h>

#include "core/system.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"

namespace vcl::fault {
namespace {

FaultPlanConfig busy_plan_config() {
  FaultPlanConfig cfg;
  cfg.horizon = 120.0;
  cfg.vehicle_crash_rate = 0.05;
  cfg.broker_crash_rate = 0.01;
  cfg.rsu_outage_rate = 0.02;
  cfg.blackout_rate = 0.02;
  cfg.blackout_lo = {0, 0};
  cfg.blackout_hi = {1000, 1000};
  return cfg;
}

TEST(FaultPlan, SameSeedSameSchedule) {
  const FaultPlanConfig cfg = busy_plan_config();
  Rng a(42), b(42);
  const FaultPlan plan_a = make_fault_plan(cfg, a);
  const FaultPlan plan_b = make_fault_plan(cfg, b);
  ASSERT_FALSE(plan_a.empty());
  ASSERT_EQ(plan_a.size(), plan_b.size());
  for (std::size_t i = 0; i < plan_a.size(); ++i) {
    EXPECT_EQ(plan_a[i].kind, plan_b[i].kind);
    EXPECT_DOUBLE_EQ(plan_a[i].at, plan_b[i].at);
    EXPECT_DOUBLE_EQ(plan_a[i].repair_after, plan_b[i].repair_after);
    EXPECT_DOUBLE_EQ(plan_a[i].duration, plan_b[i].duration);
    EXPECT_DOUBLE_EQ(plan_a[i].center.x, plan_b[i].center.x);
  }
}

TEST(FaultPlan, DifferentSeedsDiffer) {
  const FaultPlanConfig cfg = busy_plan_config();
  Rng a(42), b(43);
  const FaultPlan plan_a = make_fault_plan(cfg, a);
  const FaultPlan plan_b = make_fault_plan(cfg, b);
  bool differs = plan_a.size() != plan_b.size();
  for (std::size_t i = 0; !differs && i < plan_a.size(); ++i) {
    differs = plan_a[i].at != plan_b[i].at || plan_a[i].kind != plan_b[i].kind;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, SortedAndInsideHorizon) {
  const FaultPlanConfig cfg = busy_plan_config();
  Rng rng(7);
  const FaultPlan plan = make_fault_plan(cfg, rng);
  ASSERT_FALSE(plan.empty());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_GE(plan[i].at, 0.0);
    EXPECT_LT(plan[i].at, cfg.horizon);
    if (i > 0) {
      EXPECT_LE(plan[i - 1].at, plan[i].at);
    }
    EXPECT_FALSE(to_string(plan[i]).empty());
  }
}

TEST(FaultPlan, ZeroRatesYieldEmptyPlan) {
  FaultPlanConfig cfg;  // all rates default to 0
  Rng rng(1);
  EXPECT_TRUE(make_fault_plan(cfg, rng).empty());
}

TEST(Blackout, ZeroesReceptionInsideRegionOnly) {
  net::Channel channel;
  const geo::Vec2 a{0, 0}, b{30, 0}, far_a{2000, 0}, far_b{2030, 0};
  EXPECT_GT(channel.reception_probability(a, b, 0), 0.0);
  const std::uint64_t token = channel.add_blackout({{10, 0}, 100.0});
  EXPECT_EQ(channel.blackout_count(), 1u);
  EXPECT_DOUBLE_EQ(channel.reception_probability(a, b, 0), 0.0);
  // Both endpoints outside the region: unaffected.
  EXPECT_GT(channel.reception_probability(far_a, far_b, 0), 0.0);
  channel.remove_blackout(token);
  EXPECT_EQ(channel.blackout_count(), 0u);
  EXPECT_GT(channel.reception_probability(a, b, 0), 0.0);
}

// ---- Injector against a live cloud -------------------------------------------

class InjectorFixture : public ::testing::Test {
 protected:
  InjectorFixture()
      : road_(geo::make_manhattan_grid(3, 3, 200.0)),
        traffic_(road_, Rng(1)),
        net_(sim_, traffic_, Rng(2)) {}

  std::unique_ptr<vcloud::VehicularCloud> make_cloud(
      int members, vcloud::CloudConfig config) {
    for (int i = 0; i < members; ++i) {
      traffic_.spawn_parked(LinkId{0}, 10.0 * i);
    }
    net_.refresh();
    auto cloud = std::make_unique<vcloud::VehicularCloud>(
        CloudId{1}, net_,
        vcloud::stationary_membership(traffic_, {100, 0}, 400.0),
        vcloud::fixed_region({100, 0}, 400.0),
        std::make_unique<vcloud::GreedyResourceScheduler>(), config, Rng(3));
    cloud->refresh();
    cloud->attach();
    return cloud;
  }

  geo::RoadNetwork road_;
  sim::Simulator sim_;
  mobility::TrafficModel traffic_;
  net::Network net_;
};

TEST_F(InjectorFixture, VehicleCrashDetectedAndRecovered) {
  vcloud::CloudConfig config;
  config.dependability.detector.enabled = true;
  auto cloud = make_cloud(4, config);
  FaultEvent crash;
  crash.kind = FaultKind::kVehicleCrash;
  crash.at = 5.0;  // victim picked from the live worker pool at fire time
  FaultInjector injector(net_, *cloud, {crash}, Rng(9));
  injector.attach();

  vcloud::Task t;
  t.work = 100.0;
  const TaskId id = cloud->submit(t);
  const std::size_t population_before = traffic_.vehicles().size();
  sim_.run_until(600.0);
  EXPECT_EQ(injector.stats().vehicle_crashes, 1u);
  EXPECT_EQ(traffic_.vehicles().size(), population_before - 1);
  // The detector noticed the crash (whether or not the victim held the
  // task) and the task still completed.
  EXPECT_EQ(cloud->stats().crash_kills, 1u);
  EXPECT_EQ(cloud->find_task(id)->state, vcloud::TaskState::kCompleted);
}

TEST_F(InjectorFixture, BrokerCrashTriggersResync) {
  vcloud::CloudConfig config;
  config.dependability.detector.enabled = true;
  config.dependability.broker_resync_delay = 1.0;
  auto cloud = make_cloud(4, config);
  const VehicleId first_broker = cloud->broker();
  ASSERT_TRUE(first_broker.valid());
  FaultEvent crash;
  crash.kind = FaultKind::kBrokerCrash;
  crash.at = 3.0;
  FaultInjector injector(net_, *cloud, {crash}, Rng(9));
  injector.attach();
  sim_.run_until(60.0);
  EXPECT_EQ(injector.stats().broker_crashes, 1u);
  EXPECT_TRUE(cloud->broker().valid());
  EXPECT_NE(cloud->broker(), first_broker);
  EXPECT_GE(cloud->stats().broker_resyncs, 1u);
  EXPECT_EQ(cloud->stats().crash_kills, 1u);  // the zombie broker was swept
}

TEST_F(InjectorFixture, RsuOutageIsRepaired) {
  const RsuId rsu = net_.rsus().add({100, 0}, 500.0);
  FaultEvent outage;
  outage.kind = FaultKind::kRsuOutage;
  outage.at = 2.0;
  outage.rsu = rsu;
  outage.repair_after = 5.0;
  auto cloud = make_cloud(2, {});
  FaultInjector injector(net_, *cloud, {outage}, Rng(9));
  injector.attach();
  sim_.run_until(3.0);
  EXPECT_FALSE(net_.rsus().find(rsu)->online);
  EXPECT_EQ(injector.stats().rsu_outages, 1u);
  sim_.run_until(10.0);
  EXPECT_TRUE(net_.rsus().find(rsu)->online);
  EXPECT_EQ(injector.stats().rsu_repairs, 1u);
}

TEST_F(InjectorFixture, BlackoutWindowInstallsAndExpires) {
  FaultEvent blackout;
  blackout.kind = FaultKind::kRadioBlackout;
  blackout.at = 1.0;
  blackout.center = {100, 0};
  blackout.radius = 5000.0;
  blackout.duration = 4.0;
  auto cloud = make_cloud(2, {});
  FaultInjector injector(net_, *cloud, {blackout}, Rng(9));
  injector.attach();
  sim_.run_until(2.0);
  EXPECT_EQ(net_.channel().blackout_count(), 1u);
  EXPECT_EQ(injector.stats().blackouts, 1u);
  sim_.run_until(6.0);
  EXPECT_EQ(net_.channel().blackout_count(), 0u);
}

// ---- System-level wiring -------------------------------------------------------

TEST(SystemFaults, InjectorBuiltFromConfigAndFires) {
  core::SystemConfig config;
  config.scenario.environment = core::Environment::kParkingLot;
  config.scenario.vehicles = 30;
  config.scenario.vehicles_parked = true;
  config.architecture = core::CloudArchitecture::kStationary;
  config.stationary_radius = 2000.0;
  config.cloud.dependability.detector.enabled = true;
  config.faults.horizon = 60.0;
  config.faults.vehicle_crash_rate = 0.1;
  core::VehicularCloudSystem system(config);
  system.start();
  ASSERT_NE(system.injector(), nullptr);
  ASSERT_FALSE(system.injector()->plan().empty());
  system.run_for(60.0);
  EXPECT_GE(system.injector()->stats().vehicle_crashes, 1u);
  // Crashed vehicles really vanished and were noticed.
  EXPECT_GE(system.cloud().stats().crash_kills, 1u);
}

TEST(SystemFaults, NoRatesMeansNoInjector) {
  core::SystemConfig config;
  config.scenario.vehicles = 5;
  core::VehicularCloudSystem system(config);
  system.start();
  EXPECT_EQ(system.injector(), nullptr);
}

}  // namespace
}  // namespace vcl::fault
