// Deterministic random number generation.
//
// Every stochastic component draws from an `Rng` seeded from the scenario
// seed, so a scenario replays bit-identically. `fork()` derives independent
// child streams (e.g. one per vehicle) without correlated sequences.
//
// The engine is std::mt19937_64's sequence, not std's type: `Mt19937_64`
// seeds the same way and yields the same words, with a branch-free twist.
// `uniform` and `bernoulli` are inline and return exactly what
// std::uniform_real_distribution<double> and std::bernoulli_distribution
// return on a 64-bit engine: one word x, read as double(x) * 2^-64. The
// other distributions are std's, run on this engine.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace vcl {

class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed);

  result_type operator()() {
    if (pos_ == kN) twist();
    result_type y = x_[pos_++];
    y ^= (y >> 29) & 0x5555555555555555ULL;
    y ^= (y << 17) & 0x71d67fffeda60000ULL;
    y ^= (y << 37) & 0xfff7eee000000000ULL;
    return y ^ (y >> 43);
  }
  // Skips z words, as std's engine does.
  void discard(unsigned long long z) {
    while (z > kN - pos_) {
      z -= kN - pos_;
      twist();
    }
    pos_ += z;
  }

  friend bool operator==(const Mt19937_64&, const Mt19937_64&) = default;

 private:
  static constexpr std::size_t kN = 312;

  void twist();

  std::array<std::uint64_t, kN> x_;
  std::size_t pos_ = kN;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  // Derives an independent child stream; `salt` distinguishes siblings.
  [[nodiscard]] Rng fork(std::uint64_t salt) const;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  // Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    // generate_canonical's clamp: a word that rounds to 2^64 reads as the
    // largest double below 1.
    const double u = std::min(canonical(engine_()), 0x1.fffffffffffffp-1);
    return u * (hi - lo) + lo;
  }
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  double normal(double mean, double stddev);
  double exponential(double rate);
  // Draws one word only when 0 < p < 1. The clamp of `uniform` cannot
  // change the outcome there, so it is left out.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return canonical(engine_()) < p;
  }
  // The smallest word x with canonical(x) >= p, for 0 < p < 1: then
  // bernoulli(p) == (engine()() < bernoulli_threshold(p)), one integer
  // compare per draw.
  [[nodiscard]] static std::uint64_t bernoulli_threshold(double p);
  int poisson(double mean);

  // Picks a uniformly random element index of a container of size n (n > 0).
  std::size_t index(std::size_t n);

  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[index(items.size())];
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    std::shuffle(items.begin(), items.end(), engine_);
  }

  Mt19937_64& engine() { return engine_; }

 private:
  // A word read as a real in [0, 1]: exact, since 2^-64 scales by a power
  // of two; only the conversion to double rounds.
  static double canonical(std::uint64_t x) {
    return static_cast<double>(x) * 0x1p-64;
  }

  Mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace vcl
