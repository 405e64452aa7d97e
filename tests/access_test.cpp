#include <gtest/gtest.h>

#include "access/abe.h"
#include "access/audit_log.h"
#include "access/policy.h"
#include "access/role_manager.h"
#include "access/sticky_package.h"

namespace vcl::access {
namespace {

// ---- Attribute sets ----------------------------------------------------------

TEST(AttributeSet, BasicOps) {
  AttributeSet s{"role:head", "zone:a"};
  EXPECT_TRUE(s.has("role:head"));
  EXPECT_FALSE(s.has("role:member"));
  s.add("x");
  s.remove("zone:a");
  EXPECT_EQ(s.size(), 2u);
}

// ---- Policy parsing / evaluation ----------------------------------------------

TEST(Policy, ParseSingleAttribute) {
  const auto p = Policy::parse("role:head");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->satisfied({"role:head"}));
  EXPECT_FALSE(p->satisfied({"role:member"}));
  EXPECT_EQ(p->leaf_count(), 1u);
}

TEST(Policy, ParseAndOr) {
  const auto p = Policy::parse("(a & b) | c");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->satisfied({"a", "b"}));
  EXPECT_TRUE(p->satisfied({"c"}));
  EXPECT_FALSE(p->satisfied({"a"}));
  EXPECT_EQ(p->leaf_count(), 3u);
}

TEST(Policy, ParseThreshold) {
  const auto p = Policy::parse("2of(a, b, c)");
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->satisfied({"a"}));
  EXPECT_TRUE(p->satisfied({"a", "c"}));
  EXPECT_TRUE(p->satisfied({"a", "b", "c"}));
}

TEST(Policy, ParseNested) {
  const auto p = Policy::parse("2of(role:head & zone:z1, level:4, sensor:cam)");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->satisfied({"level:4", "sensor:cam"}));
  EXPECT_TRUE(p->satisfied({"role:head", "zone:z1", "level:4"}));
  EXPECT_FALSE(p->satisfied({"role:head", "level:4"}));  // AND incomplete
}

TEST(Policy, ParseErrors) {
  EXPECT_FALSE(Policy::parse("").has_value());
  EXPECT_FALSE(Policy::parse("a &").has_value());
  EXPECT_FALSE(Policy::parse("(a | b").has_value());
  EXPECT_FALSE(Policy::parse("5of(a, b)").has_value());  // k > n
  EXPECT_FALSE(Policy::parse("0of(a)").has_value());
  EXPECT_FALSE(Policy::parse("a b").has_value());  // trailing junk
}

TEST(Policy, RoundTripToString) {
  const auto p = Policy::parse("(a & b) | 2of(c, d, e)");
  ASSERT_TRUE(p.has_value());
  const auto reparsed = Policy::parse(p->to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(reparsed->satisfied({"a", "b"}));
  EXPECT_TRUE(reparsed->satisfied({"c", "e"}));
  EXPECT_FALSE(reparsed->satisfied({"c"}));
}

TEST(Policy, CloneIsIndependent) {
  auto p = Policy::parse("a & b");
  const Policy c = p->clone();
  EXPECT_EQ(c.leaf_count(), 2u);
  EXPECT_TRUE(c.satisfied({"a", "b"}));
}

// ---- ABE ----------------------------------------------------------------------

class AbeFixture : public ::testing::Test {
 protected:
  AbeFixture() : authority_(31337), drbg_(std::uint64_t{55}) {}
  AbeAuthority authority_;
  crypto::Drbg drbg_;
  crypto::OpCounts ops_;
};

TEST_F(AbeFixture, DecryptWithSatisfyingAttributes) {
  const auto policy = Policy::parse("a & b");
  const auto& g = crypto::default_group();
  const std::uint64_t m = g.pow_g(12345);
  const auto ct = authority_.encrypt(m, *policy, drbg_, ops_);
  const AttributeSet attrs{"a", "b"};
  const auto key = authority_.keygen(attrs);
  const auto out = AbeAuthority::decrypt(ct, key, attrs, ops_);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, m);
}

TEST_F(AbeFixture, DecryptFailsWithoutSatisfaction) {
  const auto policy = Policy::parse("a & b");
  const auto ct = authority_.encrypt(crypto::default_group().pow_g(7), *policy,
                                     drbg_, ops_);
  const AttributeSet attrs{"a"};
  const auto key = authority_.keygen(attrs);
  EXPECT_FALSE(AbeAuthority::decrypt(ct, key, attrs, ops_).has_value());
}

TEST_F(AbeFixture, ThresholdGateWorks) {
  const auto policy = Policy::parse("2of(a, b, c)");
  const auto& g = crypto::default_group();
  const std::uint64_t m = g.pow_g(999);
  const auto ct = authority_.encrypt(m, *policy, drbg_, ops_);
  for (const AttributeSet& good :
       {AttributeSet{"a", "b"}, AttributeSet{"b", "c"}, AttributeSet{"a", "c"},
        AttributeSet{"a", "b", "c"}}) {
    const auto key = authority_.keygen(good);
    const auto out = AbeAuthority::decrypt(ct, key, good, ops_);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, m);
  }
  for (const AttributeSet& bad :
       {AttributeSet{"a"}, AttributeSet{"c"}, AttributeSet{}}) {
    const auto key = authority_.keygen(bad);
    EXPECT_FALSE(AbeAuthority::decrypt(ct, key, bad, ops_).has_value());
  }
}

// Property sweep: decrypt succeeds iff the attribute set satisfies the
// policy, across several policies and attribute subsets.
class AbeProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(AbeProperty, DecryptIffSatisfied) {
  AbeAuthority authority(777);
  crypto::Drbg drbg(std::uint64_t{11});
  crypto::OpCounts ops;
  const auto policy = Policy::parse(GetParam());
  ASSERT_TRUE(policy.has_value());
  const auto& g = crypto::default_group();
  const std::uint64_t m = g.pow_g(4242);
  const auto ct = authority.encrypt(m, *policy, drbg, ops);

  const std::vector<Attribute> universe{"a", "b", "c", "d"};
  for (unsigned mask = 0; mask < 16; ++mask) {
    AttributeSet attrs;
    for (unsigned bit = 0; bit < 4; ++bit) {
      if (mask & (1u << bit)) attrs.add(universe[bit]);
    }
    const auto key = authority.keygen(attrs);
    const auto out = AbeAuthority::decrypt(ct, key, attrs, ops);
    if (policy->satisfied(attrs)) {
      ASSERT_TRUE(out.has_value()) << GetParam() << " mask=" << mask;
      EXPECT_EQ(*out, m);
    } else {
      EXPECT_FALSE(out.has_value()) << GetParam() << " mask=" << mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, AbeProperty,
                         ::testing::Values("a", "a & b", "a | b",
                                           "(a & b) | (c & d)",
                                           "2of(a, b, c)", "3of(a, b, c, d)",
                                           "a & 2of(b, c, d)",
                                           "(a | b) & (c | d)"));

TEST_F(AbeFixture, SealOpenRoundTrip) {
  const auto policy = Policy::parse("a");
  const crypto::Bytes payload = drbg_.generate(500);
  const auto pkg = authority_.seal(payload, *policy, drbg_, ops_);
  EXPECT_NE(pkg.body, payload);
  const AttributeSet attrs{"a"};
  const auto key = authority_.keygen(attrs);
  const auto out = AbeAuthority::open(pkg, key, attrs, ops_);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
}

TEST_F(AbeFixture, SealTamperDetected) {
  const auto policy = Policy::parse("a");
  auto pkg = authority_.seal(drbg_.generate(100), *policy, drbg_, ops_);
  pkg.body[0] ^= 1;
  const AttributeSet attrs{"a"};
  const auto key = authority_.keygen(attrs);
  EXPECT_FALSE(AbeAuthority::open(pkg, key, attrs, ops_).has_value());
}

TEST_F(AbeFixture, OpsCountLeaves) {
  const auto policy = Policy::parse("a & b & c");
  crypto::OpCounts ops;
  (void)authority_.encrypt(1, *policy, drbg_, ops);
  EXPECT_EQ(ops.abe_encrypt_leaves, 3u);
}

// ---- Audit log -----------------------------------------------------------------

TEST(AuditLog, ChainVerifies) {
  AuditLog log;
  for (int i = 0; i < 5; ++i) {
    log.append({static_cast<double>(i), 100u + static_cast<unsigned>(i), 7,
                "read", i % 2 == 0});
  }
  EXPECT_EQ(log.size(), 5u);
  EXPECT_TRUE(log.verify_chain());
}

TEST(AuditLog, TamperDetected) {
  AuditLog log;
  log.append({0.0, 1, 7, "read", true});
  log.append({1.0, 2, 7, "read", false});
  log.mutable_records()[0].granted = false;  // rewrite history
  EXPECT_FALSE(log.verify_chain());
}

TEST(AuditLog, TruncationDetected) {
  AuditLog log;
  log.append({0.0, 1, 7, "read", true});
  log.append({1.0, 2, 7, "read", true});
  log.mutable_records().pop_back();
  EXPECT_FALSE(log.verify_chain());
}

// ---- Sticky packages ------------------------------------------------------------

class StickyFixture : public ::testing::Test {
 protected:
  StickyFixture()
      : authority_(5),
        drbg_(std::uint64_t{66}),
        owner_key_(drbg_.generate(32)) {}

  StickyPackage make_package(const std::string& policy_text) {
    const auto policy = Policy::parse(policy_text);
    return StickyPackage(authority_, crypto::Bytes{10, 20, 30},
                         policy->clone(), owner_key_, 42, drbg_, ops_);
  }

  AbeAuthority authority_;
  crypto::Drbg drbg_;
  crypto::Bytes owner_key_;
  crypto::OpCounts ops_;
};

TEST_F(StickyFixture, AuthorizedAccessReturnsData) {
  StickyPackage pkg = make_package("role:head");
  const AttributeSet attrs{"role:head"};
  const auto key = authority_.keygen(attrs);
  const auto data = pkg.access(key, attrs, 1001, 5.0, ops_);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(*data, (crypto::Bytes{10, 20, 30}));
}

TEST_F(StickyFixture, UnauthorizedAccessDeniedButLogged) {
  StickyPackage pkg = make_package("role:head");
  const AttributeSet attrs{"role:member"};
  const auto key = authority_.keygen(attrs);
  EXPECT_FALSE(pkg.access(key, attrs, 1002, 5.0, ops_).has_value());
  ASSERT_EQ(pkg.log().size(), 1u);
  EXPECT_FALSE(pkg.log().records()[0].granted);
  EXPECT_EQ(pkg.log().records()[0].accessor, 1002u);
  EXPECT_TRUE(pkg.log().verify_chain());
}

TEST_F(StickyFixture, EveryAccessAppendsAudit) {
  StickyPackage pkg = make_package("a");
  const AttributeSet good{"a"};
  const AttributeSet bad{"b"};
  const auto gk = authority_.keygen(good);
  const auto bk = authority_.keygen(bad);
  (void)pkg.access(gk, good, 1, 0.0, ops_);
  (void)pkg.access(bk, bad, 2, 1.0, ops_);
  (void)pkg.access(gk, good, 3, 2.0, ops_);
  EXPECT_EQ(pkg.log().size(), 3u);
  EXPECT_TRUE(pkg.log().verify_chain());
}

TEST_F(StickyFixture, EnvelopeDetectsPolicyTamper) {
  StickyPackage pkg = make_package("role:head");
  EXPECT_TRUE(pkg.verify_envelope(owner_key_));
  pkg.tamper_policy_text("role:anyone");
  EXPECT_FALSE(pkg.verify_envelope(owner_key_));
}

TEST_F(StickyFixture, EnvelopeNeedsOwnerKey)  {
  StickyPackage pkg = make_package("a");
  crypto::Drbg other(std::uint64_t{67});
  EXPECT_FALSE(pkg.verify_envelope(other.generate(32)));
}

// ---- Role manager ----------------------------------------------------------------

TEST(RoleManager, HeadGetsHeadAttributes) {
  RoleManager rm;
  VehicleContext ctx;
  ctx.is_cluster_head = true;
  ctx.zone = "z3";
  const AttributeSet attrs = rm.attributes_for(ctx);
  EXPECT_TRUE(attrs.has("role:head"));
  EXPECT_TRUE(attrs.has("can:assign-tasks"));
  EXPECT_TRUE(attrs.has("zone:z3"));
  EXPECT_FALSE(attrs.has("role:member"));
}

TEST(RoleManager, EmergencyGrantsExtraAttributes) {
  RoleManager rm;
  VehicleContext ctx;
  const AttributeSet normal = rm.attributes_for(ctx);
  ctx.emergency = true;
  const AttributeSet emergency = rm.attributes_for(ctx);
  EXPECT_FALSE(normal.has("can:read-safety-data"));
  EXPECT_TRUE(emergency.has("can:read-safety-data"));
}

TEST(RoleManager, SlowVehiclesCanBuffer) {
  RoleManager rm;
  VehicleContext ctx;
  ctx.speed = 2.0;
  EXPECT_TRUE(rm.attributes_for(ctx).has("can:buffer-content"));
  ctx.speed = 30.0;
  EXPECT_FALSE(rm.attributes_for(ctx).has("can:buffer-content"));
  EXPECT_TRUE(rm.attributes_for(ctx).has("band:fast"));
}

TEST(RoleManager, SwitchDeltaCountsChanges) {
  RoleManager rm;
  VehicleContext before;
  VehicleContext after = before;
  EXPECT_EQ(rm.switch_delta(before, after), 0u);
  after.is_cluster_head = true;
  EXPECT_GT(rm.switch_delta(before, after), 0u);
}

TEST(RoleManager, CustomRules) {
  RoleManager rm;
  rm.add_rule({"vip",
               [](const VehicleContext& c) { return c.zone == "vip"; },
               {"tier:vip"},
               false});
  VehicleContext ctx;
  ctx.zone = "vip";
  EXPECT_TRUE(rm.attributes_for(ctx).has("tier:vip"));
}

}  // namespace
}  // namespace vcl::access
