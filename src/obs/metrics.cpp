#include "obs/metrics.h"

#include <algorithm>

#include "obs/json.h"

namespace vcl::obs {

void MetricsRegistry::gauge(const std::string& name, GaugeFn fn) {
  gauges_[name] = std::move(fn);
}

void MetricsRegistry::sketch_view(const std::string& name,
                                  const QuantileSketch& s) {
  sketch_views_[name] = &s;
}

const QuantileSketch* MetricsRegistry::find_sketch(
    const std::string& name) const {
  const auto it = sketch_views_.find(name);
  return it != sketch_views_.end() ? it->second : nullptr;
}

double MetricsRegistry::value(const std::string& name) const {
  if (auto it = gauges_.find(name); it != gauges_.end()) {
    return it->second ? it->second() : 0.0;
  }
  if (const QuantileSketch* s = find_sketch(name); s != nullptr) {
    return s->count() ? s->quantile(0.99) : 0.0;
  }
  return 0.0;
}

std::size_t MetricsRegistry::metric_count() const {
  return gauges_.size() + sketch_views_.size();
}

void MetricsRegistry::capture_columns() {
  columns_.clear();
  for (const auto& [name, g] : gauges_) columns_.push_back(name);
  for (const auto& [name, s] : sketch_views_) {
    columns_.push_back(name + ".count");
    columns_.push_back(name + ".p50");
    columns_.push_back(name + ".p99");
    columns_.push_back(name + ".p999");
  }
  // The maps are each sorted; a global sort makes the column order
  // independent of metric kind.
  std::sort(columns_.begin(), columns_.end());
}

std::vector<double> MetricsRegistry::snapshot_row() const {
  std::vector<double> row;
  row.reserve(columns_.size());
  for (const std::string& col : columns_) {
    if (auto it = gauges_.find(col); it != gauges_.end()) {
      row.push_back(it->second ? it->second() : 0.0);
      continue;
    }
    // Sketch-derived columns carry a ".count"/".pXX" suffix.
    const auto dot = col.rfind('.');
    const std::string base = col.substr(0, dot);
    const std::string kind = col.substr(dot + 1);
    if (const QuantileSketch* s = find_sketch(base); s != nullptr) {
      if (kind == "count") {
        row.push_back(static_cast<double>(s->count()));
      } else if (s->count() == 0) {
        row.push_back(0.0);  // quantile of nothing: keep the CSV numeric
      } else if (kind == "p50") {
        row.push_back(s->quantile(0.50));
      } else if (kind == "p99") {
        row.push_back(s->quantile(0.99));
      } else {
        row.push_back(s->quantile(0.999));
      }
      continue;
    }
    row.push_back(0.0);  // metric vanished (should not happen)
  }
  return row;
}

void MetricsRegistry::sample(SimTime now) {
  if (columns_.empty()) capture_columns();
  samples_.push_back(Sample{now, snapshot_row()});
}

void MetricsRegistry::start_sampling(sim::Simulator& sim, SimTime period) {
  sample(sim.now());  // t=0 baseline row
  sim.schedule_every(
      period, [this, &sim] { sample(sim.now()); }, -1.0, "obs.sample");
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  os << "t";
  for (const std::string& col : columns_) os << ',' << col;
  os << '\n';
  for (const Sample& s : samples_) {
    os << json_number(s.t);
    for (const double v : s.values) os << ',' << json_number(v);
    os << '\n';
  }
}

void MetricsRegistry::write_sketches_json(std::ostream& os) const {
  JsonWriter w(os);
  w.begin_object();
  w.key("schema").value("vcl-sketch-v1");
  w.key("sketches").begin_array();
  for (const auto& [name, s] : sketch_views_) {
    w.begin_object();
    w.key("name").value(name);
    w.key("relative_error").value(s->relative_error());
    w.key("max_buckets").value(static_cast<std::uint64_t>(s->max_buckets()));
    w.key("count").value(s->count());
    w.key("sum").value(s->sum());
    w.key("min").value(s->min());
    w.key("max").value(s->max());
    w.key("zero_count").value(s->zero_count());
    w.key("buckets").begin_array();
    for (const QuantileSketch::Bucket& b : s->buckets()) {
      w.begin_array();
      w.value(static_cast<double>(b.index));  // exact: indices are small ints
      w.value(b.count);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace vcl::obs
