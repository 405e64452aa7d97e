// Telemetry: the per-run observability bundle (DESIGN.md §6).
//
// One TelemetryConfig block rides SystemConfig; everything defaults OFF so
// seed determinism and performance are untouched — instrumented code sees a
// null TraceRecorder pointer and pays one branch per would-be event. When
// any piece is enabled, VehicularCloudSystem::start() builds a Telemetry,
// threads the recorder through net/vcloud/fault, registers each subsystem's
// metrics and starts the sampler and the kernel profiler.
#pragma once

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vcl::obs {

struct TelemetryConfig {
  // Structured sim-time event tracing (TraceRecorder).
  bool tracing = false;

  // Metric sampling once per simulated second (MetricsRegistry time
  // series).
  bool metrics = false;

  // Per-label wall-clock/event attribution in sim::Simulator.
  bool profile_kernel = false;

  [[nodiscard]] bool any() const {
    return tracing || metrics || profile_kernel;
  }
};

struct Telemetry {
  explicit Telemetry(const TelemetryConfig& cfg) : config(cfg) {}

  TelemetryConfig config;
  TraceRecorder trace;
  MetricsRegistry metrics;
};

// Writes the bundle into `dir` (created if missing): `trace.jsonl` and
// `trace_chrome.json` when tracing is on, `metrics.csv` (plus
// `sketches.json` when any tail sketches are registered) when sampling is.
// This is the per-replication export path exp::Campaign routes through
// `--telemetry-dir <dir>/cell<c>/rep<k>/`. Returns false on any IO error.
bool write_telemetry(const Telemetry& telemetry, const std::string& dir);

}  // namespace vcl::obs
