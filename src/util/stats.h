// Statistics accumulators used by experiments and runtime metrics.
#pragma once

#include <cstddef>
#include <vector>

namespace vcl {

// Streaming accumulator (Welford): count, sum, mean, variance, min and max
// in constant memory. Tails come from QuantileSketch, or from percentile()
// over samples the caller keeps.
class Accumulator {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  // sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Exact percentile of `xs`, p in [0, 100] (clamped), by linear interpolation
// between the two nearest ranks of the sorted values; 0.0 when `xs` is empty.
double percentile(std::vector<double> xs, double p);

// Two-sided 95% Student-t critical value for `df` degrees of freedom
// (exact table through df=30, standard stepdown to the normal 1.960
// asymptote beyond). Used by the experiment engine to turn per-replication
// scatter into confidence intervals; df=0 returns 0 (no interval from one
// observation).
double student_t95(std::size_t df);

// 95% confidence half-width of the mean of `reps`, treating each
// observation as one independent replication: t * stddev / sqrt(n). Returns
// 0 when fewer than two observations exist.
double ci95_half_width(const Accumulator& reps);

// Ratio counter for success/failure style metrics.
class Ratio {
 public:
  void hit() { ++hits_; ++total_; }
  void miss() { ++total_; }
  void add(bool success) { success ? hit() : miss(); }

  [[nodiscard]] std::size_t hits() const { return hits_; }
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] double value() const {
    return total_ ? static_cast<double>(hits_) / static_cast<double>(total_)
                  : 0.0;
  }

 private:
  std::size_t hits_ = 0;
  std::size_t total_ = 0;
};

}  // namespace vcl
