// Mergeable fixed-memory streaming quantile sketch (DDSketch-style).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace vcl {

// Relative-error quantile sketch over non-negative values (latencies).
//
// Values map to logarithmic buckets index = ceil(log_gamma(x)) with
// gamma = (1 + alpha) / (1 - alpha); the bucket midpoint estimate
// 2 * gamma^i / (gamma + 1) is within `alpha` relative error of any value
// in the bucket, so quantile() is alpha-relative-accurate for every rank.
// Memory is bounded: at most `max_buckets` buckets are kept and the lowest
// buckets collapse together when the bound is hit (tail quantiles — the
// ones we care about — keep full accuracy; only the low extreme degrades).
//
// Merging adds bucket counts, which are integers, so merge() commutes and
// associates exactly while every operand stays within the collapse bound:
// quantiles of a fold are bit-identical for ANY fold order. Floating-point
// `sum()` is the one order-sensitive field, which is why exp::Replicator
// still folds replication sketches in fixed rep order (like Accumulator).
//
// Values below kMinTrackable (including zero and any negatives) count into
// a dedicated zero bucket and are reported as 0.0 by quantile().
class QuantileSketch {
 public:
  static constexpr double kMinTrackable = 1e-9;

  explicit QuantileSketch(double relative_error = 0.01,
                          std::size_t max_buckets = 2048);

  void add(double x) { add_n(x, 1); }
  void add_n(double x, std::uint64_t n);

  // Folds `other` into this sketch (bucket-count addition). Both sides must
  // share relative_error and max_buckets; mismatched layouts throw
  // std::invalid_argument — merging incompatible buckets would silently
  // corrupt every quantile.
  void merge(const QuantileSketch& other);

  // Quantile estimate for rank q in [0, 1]; NaN when empty. The estimate is
  // clamped into [min(), max()], preserving the relative-error bound while
  // pinning q=0 / q=1 to the exact extremes.
  [[nodiscard]] double quantile(double q) const;
  // Percentile in [0, 100].
  [[nodiscard]] double percentile(double p) const {
    return quantile(p / 100.0);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double relative_error() const { return alpha_; }
  [[nodiscard]] std::size_t max_buckets() const { return max_buckets_; }
  // Live bucket count (excludes the zero bucket): the memory footprint,
  // constant in sample count and ≤ max_buckets by construction.
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
  [[nodiscard]] std::uint64_t zero_count() const { return zero_count_; }

  // Snapshot access for serialization (obs::write_telemetry) and
  // reconstruction (tools/vcl_report); buckets come back sorted by index.
  struct Bucket {
    std::int32_t index;
    std::uint64_t count;
  };
  [[nodiscard]] std::vector<Bucket> buckets() const;
  // Restores one serialized bucket: adds `count` observations at the
  // bucket's representative value (exactly reproducing quantile state; the
  // moment fields min/max/sum are restored to bucket-boundary accuracy).
  void add_bucket(std::int32_t index, std::uint64_t count);
  void add_zero(std::uint64_t count);

 private:
  [[nodiscard]] std::int32_t index_of(double x) const;
  [[nodiscard]] double value_of(std::int32_t index) const;
  void observe_moments(double x, std::uint64_t n);
  void collapse_if_needed();

  double alpha_;
  double gamma_;
  double log_gamma_;
  std::size_t max_buckets_;
  std::map<std::int32_t, std::uint64_t> buckets_;  // ordered: walk ascending
  std::uint64_t zero_count_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace vcl
