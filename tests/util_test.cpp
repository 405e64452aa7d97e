#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/ids.h"
#include "util/quantile_sketch.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace vcl {
namespace {

TEST(Ids, DistinctTypesCompare) {
  const VehicleId a{1};
  const VehicleId b{1};
  const VehicleId c{2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
}

TEST(Ids, DefaultIsInvalid) {
  const VehicleId v;
  EXPECT_FALSE(v.valid());
  EXPECT_TRUE(VehicleId{0}.valid());
}

TEST(Ids, Hashable) {
  std::unordered_map<VehicleId, int> m;
  m[VehicleId{7}] = 42;
  EXPECT_EQ(m.at(VehicleId{7}), 42);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkIndependentOfParentConsumption) {
  Rng a(42);
  const Rng child1 = a.fork(7);
  a.uniform();  // consume from parent
  const Rng child2 = Rng(42).fork(7);
  Rng c1 = child1, c2 = child2;
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(c1.uniform(), c2.uniform());
}

TEST(Rng, ForkSaltsProduceDistinctStreams) {
  Rng a(42);
  Rng f1 = a.fork(1);
  Rng f2 = a.fork(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (f1.uniform() == f2.uniform()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntInRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng r(9);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
}

TEST(Rng, PoissonMeanRoughlyCorrect) {
  Rng r(11);
  double sum = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) sum += r.poisson(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);  // sample stddev
}

TEST(Accumulator, EmptyIsZero) {
  const Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 0.0);
  EXPECT_DOUBLE_EQ(acc.max(), 0.0);
}

// ---- percentile(): exact tails over samples kept beside an Accumulator ----

TEST(Accumulator, Percentiles) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted input
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_NEAR(percentile(xs, 0), 1.0, 1e-9);
  EXPECT_NEAR(percentile(xs, 100), 100.0, 1e-9);
  EXPECT_NEAR(percentile(xs, 50), 50.5, 1e-9);
  EXPECT_NEAR(percentile(xs, 95), 95.05, 0.2);
  EXPECT_DOUBLE_EQ(percentile(xs, -5), 1.0);    // p clamps into [0, 100]
  EXPECT_DOUBLE_EQ(percentile(xs, 250), 100.0);
}

TEST(Accumulator, PercentileOneElement) {
  const std::vector<double> xs{42.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 42.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 42.0);
}

TEST(Accumulator, PercentileTwoElementInterpolation) {
  const std::vector<double> xs{20.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 15.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 20.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 12.5);
}

TEST(Ratio, EmptyIsZero) {
  const Ratio r;
  EXPECT_EQ(r.total(), 0u);
  EXPECT_EQ(r.hits(), 0u);
  EXPECT_DOUBLE_EQ(r.value(), 0.0);
}

TEST(Ratio, Value) {
  Ratio r;
  r.hit();
  r.hit();
  r.miss();
  EXPECT_NEAR(r.value(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(r.total(), 3u);
}

TEST(Table, PrintsAlignedRows) {
  Table t("demo", {"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumFormatsDecimals) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

// ---- Rng::fork stream independence (experiment-engine seed derivation) ----

double pearson(const std::vector<double>& xs, const std::vector<double>& ys) {
  const std::size_t n = xs.size();
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> draws(Rng rng, std::size_t n) {
  std::vector<double> out(n);
  for (auto& v : out) v = rng.uniform();
  return out;
}

TEST(RngFork, ParentAndChildStreamsUncorrelated) {
  // 10k paired draws; for truly independent streams |r| concentrates near
  // 1/sqrt(n) ~ 0.01, so 0.05 catches any systematic leakage without flaking.
  Rng parent(20260806);
  const std::vector<double> child = draws(parent.fork(1), 10000);
  const std::vector<double> own = draws(parent, 10000);
  EXPECT_LT(std::abs(pearson(own, child)), 0.05);
}

TEST(RngFork, SiblingStreamsPairwiseUncorrelated) {
  Rng parent(97);
  const std::vector<std::uint64_t> salts = {1, 2, 3, 1000000007ULL};
  std::vector<std::vector<double>> streams;
  for (const auto s : salts) streams.push_back(draws(parent.fork(s), 10000));
  for (std::size_t a = 0; a < streams.size(); ++a) {
    for (std::size_t b = a + 1; b < streams.size(); ++b) {
      EXPECT_LT(std::abs(pearson(streams[a], streams[b])), 0.05)
          << "salts " << salts[a] << " vs " << salts[b];
    }
  }
}

TEST(RngFork, DistinctSaltsNeverShareASequence) {
  Rng parent(7);
  for (std::uint64_t a = 0; a < 8; ++a) {
    for (std::uint64_t b = a + 1; b < 8; ++b) {
      EXPECT_NE(parent.fork(a).seed(), parent.fork(b).seed());
      EXPECT_NE(draws(parent.fork(a), 32), draws(parent.fork(b), 32))
          << "fork(" << a << ") and fork(" << b << ") collided";
    }
  }
}

// ---- Student-t table (confidence intervals) -------------------------------

TEST(StudentT, KnownCriticalValues) {
  EXPECT_DOUBLE_EQ(student_t95(0), 0.0);
  EXPECT_NEAR(student_t95(1), 12.706, 1e-3);
  EXPECT_NEAR(student_t95(4), 2.776, 1e-3);
  EXPECT_NEAR(student_t95(15), 2.131, 1e-3);
  EXPECT_NEAR(student_t95(30), 2.042, 1e-3);
  EXPECT_NEAR(student_t95(1000), 1.960, 1e-3);
  // Monotone non-increasing in df.
  for (std::size_t df = 1; df < 50; ++df) {
    EXPECT_LE(student_t95(df + 1), student_t95(df)) << "df=" << df;
  }
}

TEST(StudentT, Ci95HalfWidth) {
  Accumulator reps;
  EXPECT_DOUBLE_EQ(ci95_half_width(reps), 0.0);  // empty
  reps.add(3.0);
  EXPECT_DOUBLE_EQ(ci95_half_width(reps), 0.0);  // one rep: no interval
  reps.add(5.0);
  // n=2: t95(1) * stddev / sqrt(2), stddev = sqrt(2).
  EXPECT_NEAR(ci95_half_width(reps), student_t95(1), 1e-9);
}

// ---- QuantileSketch --------------------------------------------------------

// Exact percentile with the sketch's rank convention: the value at rank
// floor(q * (n - 1)) of the sorted sample.
double exact_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const auto rank =
      static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1));
  return xs[rank];
}

void expect_within_relative_error(const QuantileSketch& sk,
                                  const std::vector<double>& xs,
                                  const char* label) {
  for (const double q : {0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double exact = exact_quantile(xs, q);
    const double est = sk.quantile(q);
    if (exact < QuantileSketch::kMinTrackable) {
      EXPECT_EQ(est, 0.0) << label << " q=" << q;
    } else {
      EXPECT_NEAR(est, exact, sk.relative_error() * exact * (1 + 1e-9))
          << label << " q=" << q;
    }
  }
}

TEST(QuantileSketch, EmptyIsNaNAndZeroedMoments) {
  const QuantileSketch sk;
  EXPECT_TRUE(std::isnan(sk.quantile(0.5)));
  EXPECT_TRUE(std::isnan(sk.percentile(99)));
  EXPECT_EQ(sk.count(), 0u);
  EXPECT_EQ(sk.min(), 0.0);
  EXPECT_EQ(sk.max(), 0.0);
  EXPECT_EQ(sk.mean(), 0.0);
}

TEST(QuantileSketch, AccuracyOnAdversarialDistributions) {
  Rng rng(20260808);
  struct Case {
    const char* label;
    std::vector<double> xs;
  };
  std::vector<Case> cases;
  {  // Uniform: dense mid-range mass.
    Case c{"uniform", {}};
    for (int i = 0; i < 5000; ++i) c.xs.push_back(rng.uniform(0.1, 10.0));
    cases.push_back(std::move(c));
  }
  {  // Heavy tail (exp of normal, lognormal-ish): spans several decades.
    Case c{"lognormal", {}};
    for (int i = 0; i < 5000; ++i) {
      c.xs.push_back(std::exp(rng.normal(0.0, 2.0)));
    }
    cases.push_back(std::move(c));
  }
  {  // Bimodal with a 9-decade gap: buckets far apart, nothing between.
    Case c{"bimodal", {}};
    for (int i = 0; i < 2000; ++i) {
      c.xs.push_back(rng.bernoulli(0.5) ? rng.uniform(1e-6, 2e-6)
                                        : rng.uniform(1e3, 2e3));
    }
    cases.push_back(std::move(c));
  }
  {  // Constant: every quantile must hit it exactly (clamped to min/max).
    Case c{"constant", std::vector<double>(100, 3.14)};
    cases.push_back(std::move(c));
  }
  {  // Geometric ladder: one value per bucket across the whole range.
    Case c{"geometric", {}};
    for (int i = 0; i < 600; ++i) c.xs.push_back(1e-6 * std::pow(1.05, i));
    cases.push_back(std::move(c));
  }
  for (const auto& c : cases) {
    QuantileSketch sk;
    for (const double x : c.xs) sk.add(x);
    ASSERT_EQ(sk.count(), c.xs.size()) << c.label;
    expect_within_relative_error(sk, c.xs, c.label);
    // min/max are tracked exactly, and every estimate is clamped into them.
    const auto [lo, hi] = std::minmax_element(c.xs.begin(), c.xs.end());
    EXPECT_DOUBLE_EQ(sk.min(), *lo) << c.label;
    EXPECT_DOUBLE_EQ(sk.max(), *hi) << c.label;
    EXPECT_GE(sk.quantile(0.0), *lo) << c.label;
    EXPECT_LE(sk.quantile(1.0), *hi) << c.label;
  }
}

TEST(QuantileSketch, ZeroAndNegativeRouteToZeroBucket) {
  QuantileSketch sk;
  sk.add(0.0);
  sk.add(-5.0);
  sk.add(1e-12);  // below kMinTrackable
  EXPECT_EQ(sk.zero_count(), 3u);
  EXPECT_EQ(sk.count(), 3u);
  EXPECT_EQ(sk.bucket_count(), 0u);
  EXPECT_EQ(sk.quantile(0.5), 0.0);
  sk.add(100.0);
  // Three of four samples are zero: the median is still the zero bucket.
  EXPECT_EQ(sk.quantile(0.5), 0.0);
  EXPECT_NEAR(sk.quantile(1.0), 100.0, 1e-9);
}

TEST(QuantileSketch, MergeMatchesBulkAddBitIdentically) {
  Rng rng(7);
  QuantileSketch bulk;
  QuantileSketch a, b, c;
  for (int i = 0; i < 3000; ++i) {
    const double x = std::exp(rng.normal(0.0, 3.0));
    bulk.add(x);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(x);
  }
  QuantileSketch merged;
  merged.merge(a);
  merged.merge(b);
  merged.merge(c);
  EXPECT_EQ(merged.count(), bulk.count());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(merged.quantile(q), bulk.quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketch, MergeFoldOrderIsBitIdentical) {
  // Integer bucket counts make merge associative and commutative EXACTLY,
  // which is what lets exp::Replicator fold worker results in any grouping
  // without perturbing a single output bit.
  Rng rng(99);
  std::vector<QuantileSketch> parts(5);
  for (auto& p : parts) {
    const int n = static_cast<int>(rng.uniform_int(10, 400));
    for (int i = 0; i < n; ++i) p.add(std::exp(rng.normal(-2.0, 2.5)));
  }
  auto fold = [&](std::vector<std::size_t> order) {
    QuantileSketch acc;
    for (const std::size_t i : order) acc.merge(parts[i]);
    return acc;
  };
  const QuantileSketch fwd = fold({0, 1, 2, 3, 4});
  const QuantileSketch rev = fold({4, 3, 2, 1, 0});
  const QuantileSketch mix = fold({2, 0, 4, 1, 3});
  // Pairwise tree fold, like a parallel reduction would produce.
  QuantileSketch left, right;
  left.merge(parts[0]);
  left.merge(parts[1]);
  right.merge(parts[2]);
  right.merge(parts[3]);
  right.merge(parts[4]);
  QuantileSketch tree;
  tree.merge(left);
  tree.merge(right);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(fwd.quantile(q), rev.quantile(q)) << "q=" << q;
    EXPECT_EQ(fwd.quantile(q), mix.quantile(q)) << "q=" << q;
    EXPECT_EQ(fwd.quantile(q), tree.quantile(q)) << "q=" << q;
  }
  EXPECT_EQ(fwd.count(), tree.count());
  EXPECT_EQ(fwd.min(), tree.min());
  EXPECT_EQ(fwd.max(), tree.max());
}

TEST(QuantileSketch, MergeLayoutMismatchThrows) {
  QuantileSketch a(0.01, 2048);
  QuantileSketch alpha_mismatch(0.02, 2048);
  QuantileSketch bound_mismatch(0.01, 1024);
  EXPECT_THROW(a.merge(alpha_mismatch), std::invalid_argument);
  EXPECT_THROW(a.merge(bound_mismatch), std::invalid_argument);
}

TEST(QuantileSketch, CollapseBoundsMemoryAndKeepsTheTail) {
  // Force collapse: a tiny bucket budget against a range that needs far
  // more. Memory must stay bounded and the TAIL quantiles must stay
  // alpha-accurate — only the low extreme is allowed to degrade.
  QuantileSketch sk(0.01, 32);
  std::vector<double> xs;
  Rng rng(41);
  for (int i = 0; i < 20000; ++i) {
    const double x = std::exp(rng.uniform(std::log(1e-6), std::log(1e6)));
    xs.push_back(x);
    sk.add(x);
  }
  EXPECT_LE(sk.bucket_count(), 32u);
  EXPECT_EQ(sk.count(), xs.size());
  for (const double q : {0.99, 0.999, 1.0}) {
    const double exact = exact_quantile(xs, q);
    EXPECT_NEAR(sk.quantile(q), exact, sk.relative_error() * exact * (1 + 1e-9))
        << "q=" << q;
  }
}

TEST(QuantileSketch, BucketsRoundTripThroughSnapshot) {
  // add_bucket/add_zero must exactly reproduce quantile state: this is the
  // contract sketches.json reconstruction (tools/vcl_report) relies on.
  Rng rng(5);
  QuantileSketch orig;
  for (int i = 0; i < 1000; ++i) orig.add(std::exp(rng.normal(0.0, 2.0)));
  orig.add(0.0);
  orig.add(-1.0);

  QuantileSketch rebuilt(orig.relative_error(), orig.max_buckets());
  for (const auto& b : orig.buckets()) rebuilt.add_bucket(b.index, b.count);
  rebuilt.add_zero(orig.zero_count());
  EXPECT_EQ(rebuilt.count(), orig.count());
  EXPECT_EQ(rebuilt.zero_count(), orig.zero_count());
  EXPECT_EQ(rebuilt.bucket_count(), orig.bucket_count());
  for (const double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(rebuilt.quantile(q), orig.quantile(q)) << "q=" << q;
  }
  // Zero-count restores are no-ops, not spurious buckets.
  QuantileSketch empty_restore;
  empty_restore.add_bucket(5, 0);
  empty_restore.add_zero(0);
  EXPECT_EQ(empty_restore.count(), 0u);
  EXPECT_EQ(empty_restore.bucket_count(), 0u);
}

}  // namespace
}  // namespace vcl
