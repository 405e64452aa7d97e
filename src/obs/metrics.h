// MetricsRegistry: named runtime metrics plus a periodic time-series
// sampler (DESIGN.md §6).
//
// Components register metrics once at wiring time — polled gauges and
// views of the tail sketches they feed — under dotted
// `subsystem.noun.verb` names ("net.unicast.sent", "cloud.member.count").
// The sampler rides Simulator::schedule_every and snapshots every metric
// each period; the resulting time series exports to CSV so a run's
// dynamics (queue depth over time, member churn, detection latency) are a
// plot away instead of a single end-of-run number.
#pragma once

#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "util/quantile_sketch.h"
#include "util/time.h"

namespace vcl::obs {

class MetricsRegistry {
 public:
  using GaugeFn = std::function<double()>;

  // Registers (or replaces) a polled gauge.
  void gauge(const std::string& name, GaugeFn fn);
  // Registers a component-owned tail-quantile sketch by reference (the
  // sketch analogue of a gauge: the component feeds it on its hot path, the
  // registry samples and exports it). Contributes
  // `<name>.count/.p50/.p99/.p999` columns to the sampled time series and a
  // full snapshot to sketches.json on export. The sketch must outlive the
  // registry's sampling run.
  void sketch_view(const std::string& name, const QuantileSketch& s);

  // Current value of any metric by name (sketches report their p99); 0 when
  // unknown.
  [[nodiscard]] double value(const std::string& name) const;
  [[nodiscard]] std::size_t metric_count() const;

  // --- time series ------------------------------------------------------------
  // Samples every metric each `period` sim-seconds. Columns are fixed at
  // the first sample (sorted metric names); metrics registered after that
  // are picked up only by a fresh sampling run.
  void start_sampling(sim::Simulator& sim, SimTime period);
  // Takes one snapshot now (also what the periodic sampler calls).
  void sample(SimTime now);

  [[nodiscard]] const std::vector<std::string>& series_columns() const {
    return columns_;
  }
  // True when any sketch is registered.
  [[nodiscard]] bool has_sketches() const { return !sketch_views_.empty(); }
  [[nodiscard]] std::size_t sample_count() const { return samples_.size(); }

  // CSV: header `t,<col>,...` then one row per sample.
  void write_csv(std::ostream& os) const;
  // Full sketch snapshots, one vcl-sketch-v1 document: every registered
  // sketch's layout + bucket counts, so tools (vcl_report) can reconstruct
  // and merge exact quantile state across replications.
  void write_sketches_json(std::ostream& os) const;

 private:
  void capture_columns();
  [[nodiscard]] std::vector<double> snapshot_row() const;
  // Sketch registered under `name`; nullptr when unknown.
  [[nodiscard]] const QuantileSketch* find_sketch(const std::string& name) const;

  struct Sample {
    SimTime t;
    std::vector<double> values;
  };

  // std::map: deterministic column order.
  std::map<std::string, GaugeFn> gauges_;
  std::map<std::string, const QuantileSketch*> sketch_views_;
  std::vector<std::string> columns_;
  std::vector<Sample> samples_;
};

}  // namespace vcl::obs
