// Campaign: the bench-facing glue of the experiment engine (DESIGN.md §7).
//
// A bench binary owns one Campaign. It parses `--reps N --jobs J` (plus
// `--json <path>` through the embedded obs::BenchReporter), runs replicated
// cells through exp::replicate on one shared thread pool, and emits
// tables whose cells carry cross-replication statistics:
//
//   exp::Campaign campaign("bench_fig1_resource_pool", argc, argv);
//   auto s = campaign.replicate(5, [&](const exp::RepContext& ctx) {
//     exp::RepReport rep;   // cfg.scenario.seed = ctx.seed; run; report
//     ...
//     return rep;
//   });
//   campaign.emit(title, columns, {{exp::Cell("label"),
//                                   exp::Cell(s.at("members"), 1)}});
//   return campaign.finish();
//
// Compatibility contract: at the default --reps 1 a stat cell prints
// exactly Table::num(mean, decimals) and the JSON document is identical to
// the pre-engine output — single-rep runs stay byte-for-byte reproducible
// against the historical benches. With --reps N > 1 stat cells print
// "mean ±ci95" and their JSON cells become {"mean", "ci95", "n"} objects;
// the aggregate is bit-identical for any --jobs (fixed-order reduction).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/replicator.h"
#include "obs/bench_output.h"
#include "obs/telemetry.h"
#include "util/table.h"

namespace vcl::exp {

// One formatted table cell, optionally carrying its replication statistics.
struct Cell {
  std::string text;
  std::optional<obs::CellStat> stat;

  Cell(std::string text) : text(std::move(text)) {}          // NOLINT
  Cell(const char* text) : text(text) {}                     // NOLINT
  // Stat cell: "mean" at n==1 (exactly Table::num(mean, decimals)),
  // "mean ±ci95" at n>1; the JSON side gets {"mean","ci95","n"} when n>1.
  Cell(const Summary& s, int decimals);

  // Tail cell over a Summary's merged sketch: prints "p50/p99/p999" and the
  // JSON side gets {"p50","p99","p999","n"} (always an object — the text is
  // not a number). Quantiles come from integer bucket counts, so the cell
  // is bit-identical for any --jobs. Empty sketches render "-".
  static Cell tail(const Summary& s, int decimals);
};

// Writes one replication's telemetry into `dir` (obs::write_telemetry). On
// failure it throws; Campaign::replicate lets every replication of the cell
// finish, then prints "error: could not write telemetry to <dir>" on the
// calling thread and exits 1.
void export_telemetry(const obs::Telemetry& telemetry, const std::string& dir);

class Campaign {
 public:
  // Scans argv for --reps (1..10000) / --jobs (0..1024) (and --json via
  // BenchReporter); unknown flags are ignored so benches stay forgiving.
  // --jobs 0 means one job per CPU the process may run on (available_cpus).
  // A malformed or out-of-range --reps / --jobs value prints a usage line
  // and exits 2.
  Campaign(std::string bench_name, int argc, char** argv);
  ~Campaign();

  [[nodiscard]] std::size_t reps() const { return reps_; }
  [[nodiscard]] std::size_t jobs() const { return jobs_; }
  [[nodiscard]] obs::BenchReporter& reporter() { return reporter_; }
  // Root of the per-replication telemetry export (--telemetry-dir), empty
  // when export is off. Each replicate() call routes its replications to
  // "<dir>/cell<c>/rep<k>" (c counts replicate() calls, one per sweep
  // cell); the replication fn sees its directory as RepContext::out_dir
  // and is expected to enable SystemConfig::telemetry + export_telemetry
  // when it is nonempty.
  [[nodiscard]] const std::string& telemetry_dir() const {
    return telemetry_dir_;
  }

  // Prints the replication protocol line ("replication: 16 reps ..."); prints
  // nothing at --reps 1 so historical stdout is preserved.
  void describe(std::ostream& os) const;

  // reps() replications of `fn`, seeds derived from `base_seed` (rep 0 keeps
  // it unchanged), parallel over jobs() on the campaign's shared pool.
  std::map<std::string, Summary> replicate(std::uint64_t base_seed,
                                           const RepFn& fn);

  // Builds the table and its per-cell stats and hands both to
  // BenchReporter::emit, which prints and collects them.
  void emit(const std::string& title, const std::vector<std::string>& columns,
            const std::vector<std::vector<Cell>>& rows);

  // BenchReporter::finish: writes the JSON document, returns the exit code.
  int finish();

 private:
  obs::BenchReporter reporter_;
  std::size_t reps_ = 1;
  std::size_t jobs_ = 1;
  std::string telemetry_dir_;
  std::size_t cells_ = 0;  // replicate() calls so far (sweep cell index)
  std::unique_ptr<ThreadPool> pool_;  // created lazily on first parallel run
};

}  // namespace vcl::exp
