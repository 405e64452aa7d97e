#include "util/rng.h"

#include <bit>
#include <cassert>

namespace vcl {
namespace {

// std::mt19937_64's parameters: recurrence offset, twist matrix, the split
// of a word between two state entries, and the seeding multiplier.
constexpr std::size_t kM = 156;
constexpr std::uint64_t kA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLower = ~kUpper;
constexpr std::uint64_t kSeedMul = 6364136223846793005ULL;

// One twist step of entries a (upper bits) and b (lower bits); the matrix
// is applied by mask, not by branch, so the twist loops vectorize.
constexpr std::uint64_t twist_step(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t y = (a & kUpper) | (b & kLower);
  return (y >> 1) ^ ((0 - (y & 1)) & kA);
}

// SplitMix64 finalizer: decorrelates derived seeds.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Mt19937_64::Mt19937_64(result_type seed) {
  x_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    x_[i] = kSeedMul * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
  }
}

void Mt19937_64::twist() {
  for (std::size_t k = 0; k < kN - kM; ++k) {
    x_[k] = x_[k + kM] ^ twist_step(x_[k], x_[k + 1]);
  }
  for (std::size_t k = kN - kM; k < kN - 1; ++k) {
    x_[k] = x_[k + kM - kN] ^ twist_step(x_[k], x_[k + 1]);
  }
  x_[kN - 1] = x_[kM - 1] ^ twist_step(x_[kN - 1], x_[0]);
  pos_ = 0;
}

Rng Rng::fork(std::uint64_t salt) const {
  return Rng(mix(seed_ ^ mix(salt)));
}

std::uint64_t Rng::bernoulli_threshold(double p) {
  // p >= 1 draws no word, so no threshold can stand for it.
  assert(p > 0.0 && p < 1.0);
  // p on the word scale: exact, and below 2^64 since p < 1.
  const double q = p * 0x1p64;
  // Every word up to 2^53 converts exactly: the threshold is ceil(q).
  if (q <= 0x1p53) {
    const auto qi = static_cast<std::int64_t>(q);
    return static_cast<std::uint64_t>(qi) +
           (static_cast<double>(qi) < q ? 1 : 0);
  }
  // Above, q is an integer, and a word reaches q when it rounds to q or
  // beyond: past the midpoint between q and the double below it, or on it
  // when q's mantissa is even and so wins the tie. Doubles from 2^53 up
  // are even integers, so the midpoint is the sum of their halves, which
  // convert exactly, and without a branch, as signed integers.
  const auto bits = std::bit_cast<std::uint64_t>(q);
  const double below = std::bit_cast<double>(bits - 1);
  const auto half = [](double x) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(x * 0.5));
  };
  return half(q) + half(below) + (bits & 1);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::exponential(double rate) {
  return std::exponential_distribution<double>(rate)(engine_);
}

int Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  return std::poisson_distribution<int>(mean)(engine_);
}

std::size_t Rng::index(std::size_t n) {
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

}  // namespace vcl
