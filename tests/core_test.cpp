#include <gtest/gtest.h>

#include "core/emergency.h"
#include "core/pipeline.h"
#include "core/scenario.h"
#include "core/system.h"

namespace vcl::core {
namespace {

TEST(Scenario, CityScenarioRuns) {
  ScenarioConfig cfg;
  cfg.vehicles = 30;
  cfg.grid_rows = 4;
  cfg.grid_cols = 4;
  Scenario s(cfg);
  s.run_for(10.0);
  EXPECT_GE(s.traffic().vehicle_count(), 25u);
  EXPECT_GT(s.simulator().now(), 9.9);
}

TEST(Scenario, ParkedPopulation) {
  ScenarioConfig cfg;
  cfg.environment = Environment::kParkingLot;
  cfg.vehicles = 20;
  cfg.vehicles_parked = true;
  Scenario s(cfg);
  s.start();
  EXPECT_EQ(s.traffic().vehicle_count(), 20u);
  for (const auto& [vid, v] : s.traffic().vehicles()) {
    EXPECT_TRUE(v.parked);
  }
}

TEST(Scenario, RsuDeployment) {
  ScenarioConfig cfg;
  cfg.rsu_spacing = 400.0;
  Scenario s(cfg);
  EXPECT_GT(s.network().rsus().count(), 0u);
}

TEST(Scenario, DeterministicAcrossRuns) {
  auto run = [] {
    ScenarioConfig cfg;
    cfg.vehicles = 20;
    cfg.seed = 99;
    Scenario s(cfg);
    s.run_for(20.0);
    double checksum = 0;
    for (const auto& [vid, v] : s.traffic().vehicles()) {
      checksum += v.pos.x + v.pos.y + v.speed;
    }
    return checksum;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(System, DynamicSystemCompletesTasks) {
  SystemConfig cfg;
  cfg.scenario.vehicles = 40;
  cfg.architecture = CloudArchitecture::kDynamic;
  VehicularCloudSystem system(cfg);
  system.start();
  vcloud::WorkloadConfig workload;
  workload.mean_work = 5.0;
  workload.relative_deadline = 0.0;
  system.submit_workload(workload, 10);
  system.run_for(120.0);
  EXPECT_GT(system.cloud().stats().completed, 5u);
}

TEST(System, StationarySystemOnParkingLot) {
  SystemConfig cfg;
  cfg.scenario.environment = Environment::kParkingLot;
  cfg.scenario.vehicles = 30;
  cfg.scenario.vehicles_parked = true;
  cfg.architecture = CloudArchitecture::kStationary;
  cfg.stationary_radius = 2000.0;
  VehicularCloudSystem system(cfg);
  system.start();
  EXPECT_GT(system.cloud().member_count(), 10u);
  vcloud::Task t;
  t.work = 3.0;
  system.cloud().submit(t);
  system.run_for(30.0);
  EXPECT_EQ(system.cloud().stats().completed, 1u);
}

TEST(System, InfrastructureSystemUsesRsu) {
  SystemConfig cfg;
  cfg.scenario.vehicles = 40;
  cfg.scenario.rsu_spacing = 600.0;
  cfg.architecture = CloudArchitecture::kInfrastructureBased;
  VehicularCloudSystem system(cfg);
  system.start();
  system.run_for(5.0);
  EXPECT_GT(system.cloud().member_count(), 0u);
}

TEST(System, RegistersVehiclesWithAuthority) {
  SystemConfig cfg;
  cfg.scenario.vehicles = 10;
  VehicularCloudSystem system(cfg);
  system.start();
  for (const auto& [vid, v] : system.scenario().traffic().vehicles()) {
    EXPECT_TRUE(system.authority().is_registered(v.id));
  }
}

// ---- Emergency -----------------------------------------------------------------

TEST(Emergency, FailsRsusInRadius) {
  ScenarioConfig cfg;
  cfg.rsu_spacing = 400.0;
  Scenario s(cfg);
  s.start();
  EmergencyController ctrl(s.network());
  const std::size_t online_before = s.network().rsus().online_count();
  ASSERT_GT(online_before, 0u);
  ctrl.declare_emergency({500, 500}, 600.0);
  EXPECT_EQ(ctrl.mode(), OperatingMode::kEmergency);
  EXPECT_LT(s.network().rsus().online_count(), online_before);
  EXPECT_GT(ctrl.rsus_failed(), 0u);
  ctrl.all_clear();
  EXPECT_EQ(ctrl.mode(), OperatingMode::kNormal);
  EXPECT_EQ(s.network().rsus().online_count(), online_before);
}

TEST(Emergency, ListenersNotified) {
  ScenarioConfig cfg;
  Scenario s(cfg);
  s.start();
  EmergencyController ctrl(s.network());
  std::vector<OperatingMode> seen;
  ctrl.add_listener([&](OperatingMode m, geo::Vec2, double) {
    seen.push_back(m);
  });
  ctrl.declare_emergency({0, 0}, 100.0);
  ctrl.declare_emergency({0, 0}, 100.0);  // idempotent
  ctrl.all_clear();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], OperatingMode::kEmergency);
  EXPECT_EQ(seen[1], OperatingMode::kNormal);
  EXPECT_EQ(ctrl.mode_switches(), 2u);
}

// ---- Secure pipeline -------------------------------------------------------------

class PipelineFixture : public ::testing::Test {
 protected:
  PipelineFixture()
      : ta_(1),
        abe_(2),
        drbg_(std::uint64_t{3}),
        owner_key_(drbg_.generate(32)) {
    ta_.register_vehicle(VehicleId{1});
    signer_ = std::make_unique<auth::PseudonymAuth>(ta_, VehicleId{1}, 4);
  }

  SecurePipeline::AuthInput make_auth(const crypto::Bytes& payload) {
    SecurePipeline::AuthInput in;
    in.protocol = AuthProtocolKind::kPseudonym;
    in.ta = &ta_;
    in.payload = payload;
    crypto::OpCounts ops;
    in.tag = *signer_->sign(payload, 0.0, ops);
    return in;
  }

  auth::TrustedAuthority ta_;
  access::AbeAuthority abe_;
  crypto::Drbg drbg_;
  crypto::Bytes owner_key_;
  std::unique_ptr<auth::PseudonymAuth> signer_;
};

TEST_F(PipelineFixture, AllStagesPass) {
  SecurePipeline pipeline({});
  const crypto::Bytes payload{1, 2, 3};
  const auto auth_in = make_auth(payload);

  const auto policy = access::Policy::parse("role:member");
  crypto::OpCounts ops;
  access::StickyPackage pkg(abe_, crypto::Bytes{9}, policy->clone(),
                            owner_key_, 1, drbg_, ops);
  const access::AttributeSet attrs{"role:member"};
  const auto key = abe_.keygen(attrs);
  SecurePipeline::AuthzInput authz{&pkg, &key, attrs, 42};

  trust::EventCluster cluster;
  for (int i = 0; i < 4; ++i) {
    trust::Report r;
    r.positive = true;
    cluster.reports.push_back(r);
  }
  const trust::MajorityVote validator;
  SecurePipeline::TrustInput trust_in{&validator, &cluster};

  const PipelineResult result = pipeline.process(auth_in, authz, trust_in, 0.0);
  EXPECT_TRUE(result.authenticated);
  EXPECT_TRUE(result.authorized);
  EXPECT_TRUE(result.trusted);
  EXPECT_TRUE(result.accepted);
  EXPECT_GT(result.latency, 0.0);
}

TEST_F(PipelineFixture, BadSignatureRejectsAtAuthentication) {
  SecurePipeline pipeline({});
  auto auth_in = make_auth({1, 2, 3});
  auth_in.payload[0] ^= 1;  // tamper
  const PipelineResult result =
      pipeline.process(auth_in, {}, {}, 0.0);
  EXPECT_FALSE(result.accepted);
  EXPECT_STREQ(result.rejected_at, "authentication");
}

TEST_F(PipelineFixture, WrongAttributesRejectAtAuthorization) {
  SecurePipeline pipeline({});
  const auto auth_in = make_auth({5});
  const auto policy = access::Policy::parse("role:head");
  crypto::OpCounts ops;
  access::StickyPackage pkg(abe_, crypto::Bytes{9}, policy->clone(),
                            owner_key_, 1, drbg_, ops);
  const access::AttributeSet attrs{"role:member"};
  const auto key = abe_.keygen(attrs);
  SecurePipeline::AuthzInput authz{&pkg, &key, attrs, 42};
  const PipelineResult result = pipeline.process(auth_in, authz, {}, 0.0);
  EXPECT_TRUE(result.authenticated);
  EXPECT_FALSE(result.accepted);
  EXPECT_STREQ(result.rejected_at, "authorization");
  // The denial is on the package's audit log.
  EXPECT_EQ(pkg.log().size(), 1u);
}

TEST_F(PipelineFixture, UntrustedContentRejectsAtTrust) {
  SecurePipeline pipeline({});
  const auto auth_in = make_auth({5});
  trust::EventCluster cluster;
  for (int i = 0; i < 4; ++i) {
    trust::Report r;
    r.positive = false;  // everyone denies the event
    cluster.reports.push_back(r);
  }
  const trust::MajorityVote validator;
  const PipelineResult result =
      pipeline.process(auth_in, {}, {&validator, &cluster}, 0.0);
  EXPECT_FALSE(result.accepted);
  EXPECT_STREQ(result.rejected_at, "trust");
}

TEST_F(PipelineFixture, BudgetChecked) {
  PipelineConfig cfg;
  cfg.budget = 1 * kMicroseconds;  // impossible budget
  SecurePipeline pipeline(cfg);
  const auto auth_in = make_auth({5});
  const PipelineResult result = pipeline.process(auth_in, {}, {}, 0.0);
  EXPECT_TRUE(result.accepted);
  EXPECT_FALSE(result.within_budget);
}

TEST(PipelineNames, ProtocolNames) {
  EXPECT_STREQ(to_string(AuthProtocolKind::kPseudonym), "pseudonym");
  EXPECT_STREQ(to_string(CloudArchitecture::kDynamic), "dynamic");
  EXPECT_STREQ(to_string(OperatingMode::kEmergency), "emergency");
}

}  // namespace
}  // namespace vcl::core
