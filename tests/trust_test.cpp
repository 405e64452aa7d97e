#include <gtest/gtest.h>

#include "trust/classifier.h"
#include "trust/dempster_shafer.h"
#include "trust/reputation.h"
#include "trust/validators.h"

namespace vcl::trust {
namespace {

Report make_report(EventType type, geo::Vec2 loc, SimTime t, bool positive,
                   std::uint64_t credential = 1,
                   geo::Vec2 reporter_pos = {0, 0}) {
  Report r;
  r.type = type;
  r.location = loc;
  r.time = t;
  r.positive = positive;
  r.reporter_credential = credential;
  r.reporter_pos = reporter_pos;
  return r;
}

// ---- Classifier ----------------------------------------------------------------

TEST(Classifier, GroupsNearbySameTypeReports) {
  MessageClassifier c;
  std::vector<Report> reports;
  for (int i = 0; i < 5; ++i) {
    reports.push_back(make_report(EventType::kAccident,
                                  {100.0 + i * 10, 0}, i * 1.0, true));
  }
  const auto clusters = c.classify(reports);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].reports.size(), 5u);
}

TEST(Classifier, SeparatesDistantEvents) {
  MessageClassifier c;
  std::vector<Report> reports;
  reports.push_back(make_report(EventType::kAccident, {0, 0}, 0.0, true));
  reports.push_back(make_report(EventType::kAccident, {1000, 0}, 1.0, true));
  EXPECT_EQ(c.classify(reports).size(), 2u);
}

TEST(Classifier, SeparatesDifferentTypes) {
  MessageClassifier c;
  std::vector<Report> reports;
  reports.push_back(make_report(EventType::kAccident, {0, 0}, 0.0, true));
  reports.push_back(make_report(EventType::kIce, {10, 0}, 1.0, true));
  EXPECT_EQ(c.classify(reports).size(), 2u);
}

TEST(Classifier, SeparatesByTimeWindow) {
  MessageClassifier c({200.0, 15.0});
  std::vector<Report> reports;
  reports.push_back(make_report(EventType::kIce, {0, 0}, 0.0, true));
  reports.push_back(make_report(EventType::kIce, {5, 0}, 100.0, true));
  EXPECT_EQ(c.classify(reports).size(), 2u);
}

TEST(Classifier, ConflictingClaimsStayTogether) {
  // A denial of the same event clusters with the assertions — that's the
  // point: validators see the conflict.
  MessageClassifier c;
  std::vector<Report> reports;
  reports.push_back(make_report(EventType::kAccident, {0, 0}, 0.0, true));
  reports.push_back(make_report(EventType::kAccident, {20, 0}, 1.0, false));
  const auto clusters = c.classify(reports);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].reports.size(), 2u);
}

TEST(Classifier, CentroidTracksMembers) {
  MessageClassifier c;
  std::vector<Report> reports;
  reports.push_back(make_report(EventType::kIce, {0, 0}, 0.0, true));
  reports.push_back(make_report(EventType::kIce, {100, 0}, 1.0, true));
  const auto clusters = c.classify(reports);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_NEAR(clusters[0].centroid.x, 50.0, 1e-9);
}

TEST(Classifier, PurityMetric) {
  EventCluster pure;
  pure.reports.push_back(make_report(EventType::kIce, {0, 0}, 0, true));
  pure.reports.back().truth_event = EventId{1};
  pure.reports.push_back(make_report(EventType::kIce, {0, 0}, 0, true));
  pure.reports.back().truth_event = EventId{1};
  EventCluster mixed = pure;
  mixed.reports.back().truth_event = EventId{2};
  EXPECT_DOUBLE_EQ(MessageClassifier::purity({pure}), 1.0);
  EXPECT_DOUBLE_EQ(MessageClassifier::purity({pure, mixed}), 0.5);
}

// ---- Validators -----------------------------------------------------------------

EventCluster cluster_with(int positive, int negative) {
  EventCluster c;
  c.centroid = {0, 0};
  for (int i = 0; i < positive; ++i) {
    c.reports.push_back(make_report(EventType::kIce, {0, 0}, 0, true,
                                    static_cast<std::uint64_t>(i + 1),
                                    {20, 0}));
  }
  for (int i = 0; i < negative; ++i) {
    c.reports.push_back(make_report(EventType::kIce, {0, 0}, 0, false,
                                    static_cast<std::uint64_t>(100 + i),
                                    {20, 0}));
  }
  return c;
}

TEST(MajorityVoteTest, AcceptsMajorityPositive) {
  const MajorityVote v;
  EXPECT_TRUE(v.evaluate(cluster_with(4, 1)).accepted);
  EXPECT_FALSE(v.evaluate(cluster_with(1, 4)).accepted);
  EXPECT_FALSE(v.evaluate(cluster_with(0, 0)).accepted);
}

TEST(MajorityVoteTest, TieRejects) {
  const MajorityVote v;
  EXPECT_FALSE(v.evaluate(cluster_with(2, 2)).accepted);  // 0.5 not > 0.5
}

TEST(DistanceWeightedTest, CloseWitnessesOutweighFar) {
  const DistanceWeightedVote v;
  EventCluster c;
  c.centroid = {0, 0};
  // One close positive witness vs two far negative ones.
  c.reports.push_back(make_report(EventType::kIce, {0, 0}, 0, true, 1, {5, 0}));
  c.reports.push_back(
      make_report(EventType::kIce, {0, 0}, 0, false, 2, {900, 0}));
  c.reports.push_back(
      make_report(EventType::kIce, {0, 0}, 0, false, 3, {900, 0}));
  EXPECT_TRUE(v.evaluate(c).accepted);
  const MajorityVote mv;
  EXPECT_FALSE(mv.evaluate(c).accepted);  // plain majority gets it wrong
}

TEST(BayesianTest, ConfidenceGrowsWithWitnesses) {
  const BayesianInference v;
  const double one = v.evaluate(cluster_with(1, 0)).score;
  const double three = v.evaluate(cluster_with(3, 0)).score;
  EXPECT_GT(three, one);
  EXPECT_GT(one, 0.5);
}

TEST(BayesianTest, BalancedEvidenceIsUncertain) {
  const BayesianInference v;
  EXPECT_NEAR(v.evaluate(cluster_with(2, 2)).score, 0.5, 1e-9);
}

TEST(DempsterShaferTest, MassCombination) {
  MassAssignment a{0.6, 0.0, 0.4};
  MassAssignment b{0.6, 0.0, 0.4};
  const MassAssignment c = a.combine(b);
  EXPECT_GT(c.event, 0.8);  // agreement strengthens belief
  EXPECT_NEAR(c.event + c.no_event + c.theta, 1.0, 1e-9);
}

TEST(DempsterShaferTest, ConflictReducesBelief) {
  MassAssignment a{0.6, 0.0, 0.4};
  MassAssignment b{0.0, 0.6, 0.4};
  const MassAssignment c = a.combine(b);
  EXPECT_NEAR(c.event, c.no_event, 1e-9);
}

TEST(DempsterShaferTest, ValidatorAcceptsConsensus) {
  const DempsterShafer v;
  EXPECT_TRUE(v.evaluate(cluster_with(4, 0)).accepted);
  EXPECT_FALSE(v.evaluate(cluster_with(0, 4)).accepted);
}

TEST(DempsterShaferTest, CorroborationLessConfidentThanBayes) {
  // One report scores 0.6 + 0.4 / 2 = 0.8 under Dempster-Shafer, the same
  // as Bayes' per-witness accuracy; every agreeing report after it leaves
  // ignorance mass that Bayes does not keep.
  const DempsterShafer ds;
  const BayesianInference bayes;
  for (int witnesses = 2; witnesses <= 4; ++witnesses) {
    const auto c = cluster_with(witnesses, 0);
    EXPECT_LT(ds.evaluate(c).score, bayes.evaluate(c).score) << witnesses;
  }
}

// ---- Reputation ------------------------------------------------------------------

TEST(Reputation, StartsNeutral) {
  const ReputationStore store;
  EXPECT_DOUBLE_EQ(store.score(42), 0.5);
}

TEST(Reputation, LearnsFromOutcomes) {
  ReputationStore store;
  for (int i = 0; i < 10; ++i) store.record(1, true);
  for (int i = 0; i < 10; ++i) store.record(2, false);
  EXPECT_GT(store.score(1), 0.85);
  EXPECT_LT(store.score(2), 0.15);
}

TEST(Reputation, WeightedVoteFollowsReputation) {
  ReputationStore store;
  for (int i = 0; i < 10; ++i) store.record(1, true);   // trusted
  for (int i = 0; i < 10; ++i) store.record(100, false);  // liar
  const ReputationWeightedVote v(store);
  EventCluster c;
  c.centroid = {0, 0};
  // Trusted credential says yes; two known liars say no.
  c.reports.push_back(make_report(EventType::kIce, {0, 0}, 0, true, 1));
  c.reports.push_back(make_report(EventType::kIce, {0, 0}, 0, false, 100));
  c.reports.push_back(make_report(EventType::kIce, {0, 0}, 0, false, 100));
  EXPECT_TRUE(v.evaluate(c).accepted);
}

TEST(Reputation, PseudonymRotationDefeatsIt) {
  // The paper's point: fresh credentials are strangers.
  ReputationStore store;
  for (int i = 0; i < 50; ++i) store.record(7, false);  // liar under cred 7
  // The liar rotates to credential 8: reputation resets to neutral.
  EXPECT_DOUBLE_EQ(store.score(8), 0.5);
}

}  // namespace
}  // namespace vcl::trust
