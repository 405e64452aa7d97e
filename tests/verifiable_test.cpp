// Tests for SCRA precomputed signing and PTVC-style verifiable computing.
#include <gtest/gtest.h>

#include "auth/scra.h"
#include "crypto/schnorr.h"
#include "vcloud/verifiable.h"

namespace vcl {
namespace {

// ---- SCRA --------------------------------------------------------------------

class ScraFixture : public ::testing::Test {
 protected:
  ScraFixture()
      : group_(crypto::default_group()),
        drbg_(std::uint64_t{1}),
        secret_(drbg_.next_scalar(group_.q())),
        signer_(group_, secret_, 7) {}

  const crypto::SchnorrGroup& group_;
  crypto::Drbg drbg_;
  std::uint64_t secret_;
  auth::ScraSigner signer_;
  crypto::OpCounts ops_;
};

TEST_F(ScraFixture, PrecomputedSignaturesVerifyWithStandardSchnorr) {
  signer_.precompute(5, ops_);
  const crypto::Schnorr schnorr(group_);
  for (int i = 0; i < 5; ++i) {
    const crypto::Bytes msg{static_cast<std::uint8_t>(i), 2, 3};
    const auto sig = signer_.sign(msg, ops_);
    ASSERT_TRUE(sig.has_value());
    EXPECT_TRUE(schnorr.verify(signer_.pub(), msg, *sig));
    crypto::Bytes bad = msg;
    bad[0] ^= 1;
    EXPECT_FALSE(schnorr.verify(signer_.pub(), bad, *sig));
  }
}

TEST_F(ScraFixture, TableIsConsumable) {
  signer_.precompute(2, ops_);
  EXPECT_EQ(signer_.table_remaining(), 2u);
  (void)signer_.sign({1}, ops_);
  (void)signer_.sign({2}, ops_);
  EXPECT_EQ(signer_.table_remaining(), 0u);
  EXPECT_FALSE(signer_.sign({3}, ops_).has_value());  // exhausted
}

TEST_F(ScraFixture, OnlineCostIsHashNotSign) {
  signer_.precompute(3, ops_);
  const auto offline_signs = ops_.sign;
  crypto::OpCounts online;
  (void)signer_.sign({1}, online);
  EXPECT_EQ(online.sign, 0u);   // no exponentiation online
  EXPECT_EQ(online.hash, 1u);   // one hash
  EXPECT_EQ(offline_signs, 3u); // cost was paid up front
}

TEST_F(ScraFixture, EachSignatureUsesFreshNonce) {
  signer_.precompute(3, ops_);
  const auto s1 = signer_.sign({1}, ops_);
  const auto s2 = signer_.sign({1}, ops_);  // same message, new entry
  EXPECT_NE(s1->r, s2->r);  // nonce reuse would leak the key
}

// ---- Verifiable computing ------------------------------------------------------

class VerifiableFixture : public ::testing::Test {
 protected:
  VerifiableFixture()
      : road_(geo::make_manhattan_grid(2, 2, 200.0)),
        traffic_(road_, Rng(1)),
        net_(sim_, traffic_, Rng(2)) {
    for (int i = 0; i < 6; ++i) {
      workers_.push_back(traffic_.spawn_parked(LinkId{0}, 15.0 * i));
    }
    net_.refresh();
    cloud_ = std::make_unique<vcloud::VehicularCloud>(
        CloudId{1}, net_,
        vcloud::stationary_membership(traffic_, {50, 0}, 500.0),
        vcloud::fixed_region({50, 0}, 500.0),
        std::make_unique<vcloud::RandomScheduler>(), vcloud::CloudConfig{},
        Rng(3));
    cloud_->refresh();
    sim_.schedule_every(1.0, [this] { cloud_->refresh(); });
  }

  geo::RoadNetwork road_;
  sim::Simulator sim_;
  mobility::TrafficModel traffic_;
  net::Network net_;
  std::vector<VehicleId> workers_;
  std::unique_ptr<vcloud::VehicularCloud> cloud_;
  attack::AdversaryRoster cheaters_;
};

TEST_F(VerifiableFixture, HonestWorkersAlwaysAccepted) {
  vcloud::ReplicatedSubmitter submitter(*cloud_, cheaters_, 2);
  submitter.attach(sim_);
  for (int i = 0; i < 5; ++i) {
    vcloud::Task t;
    t.work = 3.0;
    submitter.submit(std::move(t));
  }
  sim_.run_until(200.0);
  EXPECT_EQ(submitter.accepted_jobs(), 5u);
  EXPECT_EQ(submitter.rejected_jobs(), 0u);
  EXPECT_EQ(submitter.undetected_errors(), 0u);
}

TEST_F(VerifiableFixture, SingleReplicaAcceptsCheaterResults) {
  // Everyone cheats: with r=1 there is nothing to compare against, so every
  // wrong result is accepted — the unverified baseline PTVC attacks.
  for (const VehicleId w : workers_) cheaters_.add(w);
  vcloud::ReplicatedSubmitter submitter(*cloud_, cheaters_, 1);
  submitter.attach(sim_);
  for (int i = 0; i < 5; ++i) {
    vcloud::Task t;
    t.work = 2.0;
    submitter.submit(std::move(t));
  }
  sim_.run_until(200.0);
  EXPECT_EQ(submitter.accepted_jobs(), 5u);
  EXPECT_EQ(submitter.undetected_errors(), 5u);  // all garbage, all accepted
}

TEST_F(VerifiableFixture, ReplicationCatchesLoneCheater) {
  cheaters_.add(workers_[0]);  // one bad apple among six
  vcloud::ReplicatedSubmitter submitter(*cloud_, cheaters_, 3);
  submitter.attach(sim_);
  for (int i = 0; i < 8; ++i) {
    vcloud::Task t;
    t.work = 2.0;
    submitter.submit(std::move(t));
  }
  sim_.run_until(400.0);
  // With 3 replicas and one cheater in six workers, a wrong majority needs
  // the cheater twice in one job — impossible (distinct workers per task at
  // a time) — so no undetected errors.
  EXPECT_EQ(submitter.undetected_errors(), 0u);
  EXPECT_GT(submitter.accepted_jobs(), 0u);
  // The cheater's reputation suffered; honest workers' grew.
  EXPECT_LT(submitter.reputation().score(workers_[0].value()), 0.5);
}

TEST_F(VerifiableFixture, ReputationSeparatesHonestFromCheating) {
  cheaters_.add(workers_[0]);
  cheaters_.add(workers_[1]);
  vcloud::ReplicatedSubmitter submitter(*cloud_, cheaters_, 2);
  submitter.attach(sim_);
  for (int i = 0; i < 12; ++i) {
    vcloud::Task t;
    t.work = 1.5;
    submitter.submit(std::move(t));
  }
  sim_.run_until(400.0);
  double cheater_score = 0;
  double honest_score = 0;
  std::size_t honest_n = 0;
  for (const VehicleId w : workers_) {
    if (cheaters_.is_malicious(w)) {
      cheater_score = std::max(cheater_score,
                               submitter.reputation().score(w.value()));
    } else if (submitter.reputation().score(w.value()) != 0.5) {
      honest_score += submitter.reputation().score(w.value());
      ++honest_n;
    }
  }
  if (honest_n > 0) {
    EXPECT_GT(honest_score / static_cast<double>(honest_n), cheater_score);
  }
}

}  // namespace
}  // namespace vcl
