#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
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

// ---- Mt19937_64 and the inline draws: std's words and outcomes ------------

// Seeds at the edges of the seed space and the kind fork() derives.
std::vector<std::uint64_t> engine_seeds() {
  return {0, 1, ~std::uint64_t{0}, Rng(42).fork(7).seed(),
          Rng(20260806).fork(1).seed()};
}

TEST(Mt19937_64, YieldsStdWords) {
  for (const std::uint64_t seed : engine_seeds()) {
    Mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    std::size_t mismatches = 0;
    for (int i = 0; i < 1000000; ++i) mismatches += ours() != ref() ? 1 : 0;
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
}

TEST(Mt19937_64, CopyAndDiscardKeepStdSequence) {
  for (const std::uint64_t seed : engine_seeds()) {
    Mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    // Lengths on either side of the 312-word state, from varying offsets.
    for (const unsigned long long n : {0ull, 1ull, 155ull, 311ull, 312ull,
                                       313ull, 624ull, 1000ull, 4097ull}) {
      Mt19937_64 drawn = ours;
      for (unsigned long long i = 0; i < n; ++i) drawn();
      ours.discard(n);
      ref.discard(n);
      EXPECT_TRUE(ours == drawn) << "seed " << seed << " n " << n;
      Mt19937_64 copy = ours;
      for (int i = 0; i < 700; ++i) {
        const std::uint64_t want = ref();
        ASSERT_EQ(ours(), want) << "seed " << seed << " n " << n;
        ASSERT_EQ(copy(), want) << "seed " << seed << " n " << n;
      }
    }
  }
}

TEST(Mt19937_64, EqualityAgreesWithStd) {
  // Pairs driven alike compare alike, from either side.
  Mt19937_64 a(5), b(5), c(6);
  std::mt19937_64 ra(5), rb(5), rc(6);
  const auto agree = [&](const char* step) {
    EXPECT_EQ(a == b, ra == rb) << step;
    EXPECT_EQ(b == a, rb == ra) << step;
    EXPECT_EQ(a != c, ra != rc) << step;
    EXPECT_EQ(c != a, rc != ra) << step;
  };
  agree("fresh");
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a != c);
  a();
  ra();
  agree("a one word ahead");
  EXPECT_TRUE(a != b);
  b.discard(1);
  rb.discard(1);
  agree("b caught up");
  EXPECT_TRUE(a == b);
  // The same words at different positions are different states.
  a.discard(312);
  ra.discard(312);
  agree("a a state ahead");
  EXPECT_TRUE(a != b);
}

// An engine that yields one chosen word, to read std's distributions at it.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type word;
  result_type operator()() const { return word; }
};

bool std_bernoulli_at(double p, std::uint64_t word) {
  FixedWord engine{word};
  return std::bernoulli_distribution(p)(engine);
}

// A random p in (0, 1/2]: a random mantissa in a random binade, so p * 2^64
// falls on either side of 2^53.
double random_probability(std::mt19937_64& bits) {
  const double mantissa =
      1.0 + std::ldexp(static_cast<double>(bits() >> 12), -52);
  return std::ldexp(mantissa, -1 - static_cast<int>(bits() % 64));
}

// Probabilities at powers of two, one ulp either side of them, and random
// values across many binades.
std::vector<double> probe_probabilities() {
  std::vector<double> ps;
  for (int e = 1; e <= 70; ++e) {
    const double p = std::ldexp(1.0, -e);
    ps.push_back(p);
    ps.push_back(std::nextafter(p, 0.0));
    if (e > 1) ps.push_back(std::nextafter(p, 1.0));
  }
  ps.push_back(std::nextafter(1.0, 0.0));
  std::mt19937_64 bits(11);
  for (int i = 0; i < 300; ++i) ps.push_back(random_probability(bits));
  return ps;
}

TEST(Rng, DrawsMatchStdDistributionsOnStdEngine) {
  for (const std::uint64_t seed : engine_seeds()) {
    Rng r(seed);
    std::mt19937_64 e(seed);
    for (const double p : probe_probabilities()) {
      for (int i = 0; i < 50; ++i) {
        ASSERT_EQ(r.bernoulli(p), std::bernoulli_distribution(p)(e))
            << "seed " << seed << " p " << p;
      }
      // Outside (0, 1) no word is drawn.
      EXPECT_FALSE(r.bernoulli(0.0));
      EXPECT_FALSE(r.bernoulli(-p));
      EXPECT_TRUE(r.bernoulli(1.0));
      EXPECT_TRUE(r.bernoulli(1.0 + p));
    }
    for (int i = 0; i < 2000; ++i) {
      const double lo = -50.0 + static_cast<double>(i % 7);
      const double hi = lo + 0.5 + static_cast<double>(i % 13);
      ASSERT_EQ(r.uniform(lo, hi),
                std::uniform_real_distribution<double>(lo, hi)(e))
          << "seed " << seed << " draw " << i;
      ASSERT_EQ(r.uniform(), std::uniform_real_distribution<double>()(e));
      ASSERT_EQ(r.uniform_int(-3, 40 + i),
                std::uniform_int_distribution<std::int64_t>(-3, 40 + i)(e));
      ASSERT_EQ(r.normal(2.0, 0.5),
                std::normal_distribution<double>(2.0, 0.5)(e));
      ASSERT_EQ(r.exponential(0.3),
                std::exponential_distribution<double>(0.3)(e));
      ASSERT_EQ(r.poisson(4.5), std::poisson_distribution<int>(4.5)(e));
      EXPECT_EQ(r.poisson(0.0), 0);
      const std::size_t n = 1 + static_cast<std::size_t>(i % 97);
      ASSERT_EQ(r.index(n),
                static_cast<std::size_t>(
                    std::uniform_int_distribution<std::int64_t>(
                        0, static_cast<std::int64_t>(n) - 1)(e)));
    }
    std::vector<int> ours(200), ref(200);
    for (int i = 0; i < 200; ++i) ours[i] = ref[i] = i;
    r.shuffle(ours);
    std::shuffle(ref.begin(), ref.end(), e);
    EXPECT_EQ(ours, ref) << "seed " << seed;
    EXPECT_EQ(r.engine()(), e()) << "seed " << seed;
  }
}

// Smallest word x whose draw fails bernoulli(p), by a 64-step bisection.
std::uint64_t bisected_threshold(double p) {
  const auto fails = [p](std::uint64_t x) {
    return !(static_cast<double>(x) * 0x1p-64 < p);
  };
  std::uint64_t lo = 0, hi = ~std::uint64_t{0};
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (fails(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

void expect_threshold(double p) {
  const std::uint64_t t = Rng::bernoulli_threshold(p);
  ASSERT_EQ(t, bisected_threshold(p)) << std::hexfloat << "p " << p;
  // std's own outcome on both sides of the threshold.
  ASSERT_TRUE(std_bernoulli_at(p, t - 1)) << std::hexfloat << "p " << p;
  ASSERT_FALSE(std_bernoulli_at(p, t)) << std::hexfloat << "p " << p;
}

TEST(Rng, BernoulliThresholdMatchesBisection) {
  for (const double p : probe_probabilities()) expect_threshold(p);
  // Subnormal and tiny p: the threshold is 1 (only word 0 succeeds).
  for (int e = 60; e <= 1074; e += 7) expect_threshold(std::ldexp(1.0, -e));
  // p * 2^64 within a few ulps of 2^53, where words stop converting
  // exactly.
  double up = 0x1p53, down = 0x1p53;
  for (int k = 0; k < 16; ++k) {
    expect_threshold(std::ldexp(up, -64));
    expect_threshold(std::ldexp(down, -64));
    up = std::nextafter(up, 0x1p64);
    down = std::nextafter(down, 0.0);
  }
  // Binade edges and tie midpoints of every binade above 2^53: q at a
  // power of two, and q with even and odd mantissas, whose midpoints with
  // the double below round the two ways.
  for (int e = 53; e < 64; ++e) {
    double above = std::ldexp(1.0, e), below = above;
    for (int k = 0; k < 4; ++k) {
      expect_threshold(std::ldexp(above, -64));
      expect_threshold(std::ldexp(below, -64));
      above = std::nextafter(above, 0x1p64);
      below = std::nextafter(below, 0.0);
    }
  }
  // Random p, and random p in the top binade [1/2, 1).
  std::mt19937_64 bits(20261020);
  for (int i = 0; i < 20000; ++i) expect_threshold(random_probability(bits));
  for (int i = 0; i < 2000; ++i) {
    const double p = 0.5 + static_cast<double>(bits() >> 12) * 0x1p-53;
    expect_threshold(p);
  }
}

TEST(Rng, ThresholdDrawsMatchBernoulli) {
  for (const std::uint64_t seed : engine_seeds()) {
    Rng a(seed), b(seed);
    for (const double p : probe_probabilities()) {
      const std::uint64_t t = Rng::bernoulli_threshold(p);
      for (int i = 0; i < 50; ++i) {
        ASSERT_EQ(a.engine()() < t, b.bernoulli(p))
            << "seed " << seed << " p " << p;
      }
    }
    EXPECT_TRUE(a.engine() == b.engine());
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
