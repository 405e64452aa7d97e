// vcl_report: unified run-health report over a run's telemetry exports
// (DESIGN.md §8).
//
// Points at one or more telemetry directories (obs::write_telemetry /
// vcl_chaos / any bench with --telemetry-dir) and merges whatever is there
// — trace.jsonl, metrics.csv, sketches.json, violations.jsonl — into one
// health view: tail-latency tables from the merged quantile sketches,
// per-task and per-storage-op latency attributed to injected fault
// windows (in-storm vs clear-sky), per-component counters, and oracle
// violation records. Sketch merges add integer bucket counts, so the
// report is bit-identical for any directory order.
//
//   vcl_report out/rep0                          # human-readable, stdout
//   vcl_report --json out/rep0 > report.json     # machine-readable
//   vcl_report --out report.json out/rep0 out/rep1  # text to stdout AND
//                                                   # JSON artifact to file
//
// Absent optional artifacts note-and-continue (a per-directory "absent
// (skipped)" note in the output); trace-ring data loss (overwritten
// events, dropped fields) is surfaced as explicit WARNING lines / a
// "warnings" JSON array. Exit codes: the single authoritative statement
// is in usage()/--help.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/bench_output.h"
#include "obs/report.h"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [--json] [--out FILE] DIR [DIR...]\n"
            << "  --json      write the JSON report to stdout instead of\n"
            << "              the human-readable text\n"
            << "  --out FILE  additionally write the JSON report to FILE\n"
            << "              (CI artifact next to the text on stdout)\n"
            << "\n"
            << "Merges trace.jsonl / metrics.csv / sketches.json /\n"
            << "violations.jsonl from each DIR; every artifact is optional\n"
            << "and an absent one is noted and skipped, never fatal. Trace\n"
            << "ring overwrites and dropped fields become WARNING lines (a\n"
            << "\"warnings\" array in --json).\n"
            << "exit codes:\n"
            << "  0  report produced (violations included — the report is\n"
            << "     an observer; gating is the chaos runner's job)\n"
            << "  1  the report could not be written (FILE or stdout)\n"
            << "  2  usage error, unreadable/malformed input, or no\n"
            << "     artifact found in any DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string out_path;
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--out") {
      if (++i >= argc) return usage(argv[0]);
      out_path = argv[i];
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.empty()) return usage(argv[0]);

  vcl::obs::RunHealth health;
  std::string error;
  if (!vcl::obs::build_run_health(dirs, health, &error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }

  if (!out_path.empty()) {
    std::ofstream os(out_path);
    vcl::obs::write_health_json(os, health);
    if (vcl::obs::finish_output(os, out_path) != 0) return 1;
  }
  if (json) {
    vcl::obs::write_health_json(std::cout, health);
  } else {
    vcl::obs::write_health_text(std::cout, health);
  }
  return vcl::obs::finish_output(std::cout, "stdout");
}
