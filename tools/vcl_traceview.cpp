// vcl_traceview: per-task critical-path latency breakdown from a trace
// JSONL export (DESIGN.md §8).
//
// Reads the JSONL a TraceRecorder wrote (obs::write_telemetry's
// trace.jsonl, or any write_jsonl stream), reassembles each task's causal
// span tree and prints where its end-to-end latency went: broker queueing,
// network (dispatch/input/result transfer), compute, crash recovery — plus
// ring-completeness diagnostics (orphaned spans, overwritten history).
//
//   vcl_traceview out/rep0/trace.jsonl
//   vcl_traceview --json out/rep0/trace.jsonl   # machine-readable
//   vcl_traceview --storage chaos-out/trace.jsonl  # per-object storage ops
//   vcl_traceview --dag dag-out/trace.jsonl     # per-DAG-run critical path
//   some_bench | vcl_traceview -                # read stdin
//
// --dag additionally *asserts* the leg-partition invariant: for a complete
// (unwrapped) trace, every completed node's queue/network/compute/recovery
// legs must partition its end-to-end latency exactly — a nonzero residual
// means the recorder or the reduction is broken, and the tool exits 1.
//
// Unknown root-span categories (a newer recorder's traces) are skipped and
// counted in the diagnostics, never fatal.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/bench_output.h"
#include "obs/trace_analysis.h"

namespace {

// Partition tolerance for --dag: legs are sums of recorded event-time
// differences, so anything beyond accumulated rounding is a real hole.
constexpr double kPartitionTolerance = 1e-6;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--json] [--storage] [--dag] <trace.jsonl | ->\n"
            << "  --json     machine-readable output (tasks + storage ops +\n"
            << "             dag runs + fault windows in one document)\n"
            << "  --storage  per-object storage breakdown (put/get/repair\n"
            << "             latency, storm attribution) instead of the\n"
            << "             per-task table\n"
            << "  --dag      per-DAG-run breakdown: node table, measured\n"
            << "             critical path, leg-partition check (exits 1 on\n"
            << "             a partition violation in a complete trace)\n"
            << "exit codes:\n"
            << "  0  report rendered\n"
            << "  1  unreadable or malformed trace, (--dag) a leg-partition\n"
            << "     violation in a complete trace, or stdout could not be\n"
            << "     written\n"
            << "  2  usage error\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool storage = false;
  bool dag = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--storage") {
      storage = true;
    } else if (arg == "--dag") {
      dag = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  std::ifstream file;
  if (path != "-") {
    file.open(path);
    if (!file) {
      std::cerr << "error: cannot open " << path << "\n";
      return 1;
    }
  }
  std::istream& in = path == "-" ? std::cin : file;

  std::vector<vcl::obs::ParsedEvent> events;
  vcl::obs::TraceMeta meta;
  std::string error;
  if (!vcl::obs::parse_trace_jsonl(in, events, meta, &error)) {
    std::cerr << "error: " << path << ": " << error << "\n";
    return 1;
  }

  const vcl::obs::TraceAnalysis analysis(events);
  if (json) {
    analysis.write_json(std::cout, meta);
  } else if (storage) {
    analysis.write_storage_report(std::cout, meta);
  } else if (dag) {
    analysis.write_dag_report(std::cout, meta);
    // The partition assert only binds on complete traces: a wrapped ring
    // legitimately loses legs, and the report already flags it.
    if (meta.complete()) {
      for (const vcl::obs::DagRunBreakdown& run : analysis.dags()) {
        if (run.partition_max_dev > kPartitionTolerance) {
          std::cerr << "error: trace " << run.trace_id
                    << ": node legs do not partition e2e (max deviation "
                    << run.partition_max_dev << " s)\n";
          return 1;
        }
      }
    }
  } else {
    analysis.write_report(std::cout, meta);
  }
  return vcl::obs::finish_output(std::cout, "stdout");
}
