// Replicated experiment runs with deterministic parallel reduction
// (DESIGN.md §7).
//
// A replication function is called once per replication with an independent
// seed (`Rng::fork(rep)`-derived; replication 0 keeps the base seed so a
// single-rep run reproduces the historical single-seed experiment exactly)
// and reports named metrics into a `RepReport`. `replicate()` runs the N
// replications — inline without a pool, across the caller's `ThreadPool`
// otherwise — then reduces per-metric in replication order, so the aggregate
// is bit-identical with or without the pool, whatever its size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "util/thread_pool.h"
#include "util/quantile_sketch.h"
#include "util/stats.h"

namespace vcl::exp {

// Identity of one replication inside a replicated run.
struct RepContext {
  std::size_t rep = 0;     // replication index in [0, reps)
  std::uint64_t seed = 0;  // independent per-rep seed (rep 0 == base seed)
  // Pre-created directory this replication should export its telemetry
  // into ("<out_dir>/rep<k>"); empty when per-rep export is off.
  std::string out_dir;
};

// What one replication reports: named metrics, each an Accumulator whose
// mean is the replication's observation (usually one value() call per name).
class RepReport {
 public:
  void value(const std::string& name, double v) { metrics_[name].add(v); }
  // Fixed-memory tail distribution (p50/p99/p999) for metrics with many
  // observations per replication. All tails use the sketch's default layout
  // so cross-replication merges are always layout-compatible. A tail may
  // share its name with a value(); they reduce into the same Summary.
  QuantileSketch& tail(const std::string& name);

  [[nodiscard]] const std::map<std::string, Accumulator>& metrics() const {
    return metrics_;
  }
  [[nodiscard]] const std::map<std::string, QuantileSketch>& tails() const {
    return tails_;
  }

 private:
  std::map<std::string, Accumulator> metrics_;
  std::map<std::string, QuantileSketch> tails_;
};

// Cross-replication reduction of one metric.
struct Summary {
  // One entry per reporting replication: that replication's mean.
  Accumulator across;
  // Per-replication tail sketches merged in replication order. Bucket
  // counts are integers, so the merged quantiles are bit-identical for any
  // `jobs`; the fixed fold order additionally pins the floating-point sum.
  QuantileSketch tail;
  bool has_tail = false;

  [[nodiscard]] std::size_t n() const { return across.count(); }
  [[nodiscard]] double mean() const { return across.mean(); }
  [[nodiscard]] double stddev() const { return across.stddev(); }
  // Student-t 95% half-width over the per-replication means; 0 when n < 2.
  [[nodiscard]] double ci95() const { return ci95_half_width(across); }
};

struct ReplicateOptions {
  std::size_t reps = 1;
  std::uint64_t base_seed = 0;
  // When nonempty, "<out_dir>/rep<k>" is created (serially, before any
  // parallel dispatch) and handed to replication k as RepContext::out_dir.
  std::string out_dir;
};

using RepFn = std::function<RepReport(const RepContext&)>;

// Per-replication seed: rep 0 keeps `base_seed` unchanged (single-rep runs
// reproduce the historical experiments byte-for-byte); rep r > 0 derives an
// independent stream via Rng(base_seed).fork(r).
std::uint64_t rep_seed(std::uint64_t base_seed, std::size_t rep);

// Runs `fn` opts.reps times and reduces. A replication that throws aborts
// the run: the first exception (in replication order) is rethrown after all
// in-flight replications finish. With a `pool` (Campaign shares one across
// the cells of a sweep) the replications run on it; nullptr runs them
// inline, one after another.
std::map<std::string, Summary> replicate(const ReplicateOptions& opts,
                                         const RepFn& fn,
                                         ThreadPool* pool = nullptr);

}  // namespace vcl::exp
