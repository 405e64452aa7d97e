// BenchReporter: the shared machine-readable output path for bench_*.
//
// Every bench binary owns one reporter: it parses `--json <path>` from the
// command line, prints and collects each Table through emit(), and at exit
// finish() writes one JSON document in the single vcl-bench-v1 schema:
//
//   {
//     "schema": "vcl-bench-v1",
//     "bench": "bench_fig1_resource_pool",
//     "scalars": {"wall_s": 1.7},
//     "tables": [
//       {"title": "...", "columns": ["mix", ...], "rows": [["today", 40, ...]]}
//     ]
//   }
//
// Cells that parse fully as numbers are emitted as JSON numbers, the rest
// as strings — downstream tooling (scripts/collect_bench.sh, plotting)
// consumes every bench through this one schema, never bespoke formats.
// Without `--json` the reporter is inert and the bench behaves exactly as
// before.
#pragma once

#include <chrono>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "util/table.h"

namespace vcl::obs {

// Cross-replication statistics for one table cell (experiment engine,
// DESIGN.md §7). A cell carrying one is emitted as
// {"mean": m, "ci95": c, "n": reps} instead of a plain number — still
// vcl-bench-v1; consumers that only read plain cells see them whenever
// replication is off (n == 1 cells are never annotated).
struct CellStat {
  double mean = 0.0;
  double ci95 = 0.0;
  std::size_t n = 0;
  // Tail-quantile cell (merged QuantileSketch, DESIGN.md §7): when set the
  // cell is emitted as {"p50": ..., "p99": ..., "p999": ..., "n": count}
  // instead of {"mean","ci95","n"}. Unlike mean cells, a tail cell is
  // emitted as an object even at n == 1 — the text form ("a/b/c") is not a
  // number, so the object IS the machine-readable value. `n` holds the
  // merged observation count, not the replication count.
  bool has_tail = false;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

// Per-table stat annotations: stats[row][col] aligned with the Table's
// rows/columns; std::nullopt marks an unannotated cell. Rows may be absent
// or short — missing entries mean "plain cell".
using TableStats = std::vector<std::vector<std::optional<CellStat>>>;

class BenchReporter {
 public:
  // `bench_name` names the binary; argv is scanned for `--json <path>`
  // (unknown flags are ignored so benches stay forgiving).
  BenchReporter(std::string bench_name, int argc, char** argv);

  [[nodiscard]] bool enabled() const { return !path_.empty(); }
  [[nodiscard]] const std::string& path() const { return path_; }

  // Snapshots a finished table (call after the bench filled it), optionally
  // with cross-replication per-cell statistics (see TableStats).
  void add(const Table& table, TableStats stats = {});
  // Prints the table to stdout, then collects it (the usual bench path).
  void emit(const Table& table, TableStats stats = {});
  // Top-level named result (wall-clock, pass/fail counts, config knobs).
  void add_scalar(const std::string& key, double value);

  // Writes the document (no-op without --json) and returns the bench's exit
  // code: 0, or 1 when the --json path could not be written (with a message
  // on stderr).
  int finish() const;

  // The document as a string (testing / in-process consumers).
  [[nodiscard]] std::string to_json() const;

 private:
  struct TableCopy {
    std::string title;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
    TableStats stats;  // empty when the table carries no annotations
  };

  std::string bench_name_;
  std::string path_;
  // Construction time: to_json() derives a free "wall_s" scalar from it
  // unless the bench set one explicitly.
  std::chrono::steady_clock::time_point start_;
  std::map<std::string, double> scalars_;
  std::vector<TableCopy> tables_;
};

// Flushes a finished output stream and checks that everything written to it
// arrived. Returns the exit code of a tool that wrote it: 0, or 1 after
// printing "error: could not write <name>" on stderr.
int finish_output(std::ostream& os, const std::string& name);

}  // namespace vcl::obs
