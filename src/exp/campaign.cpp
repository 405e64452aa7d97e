#include "exp/campaign.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "util/flags.h"
#include "util/thread_pool.h"

namespace vcl::exp {

namespace {
// Carries the directory of a failed export out of the replication.
struct TelemetryExportError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
}  // namespace

void export_telemetry(const obs::Telemetry& telemetry,
                      const std::string& dir) {
  if (!obs::write_telemetry(telemetry, dir)) throw TelemetryExportError(dir);
}

Cell::Cell(const Summary& s, int decimals) {
  text = Table::num(s.mean(), decimals);
  if (s.n() > 1) {
    text += " ±" + Table::num(s.ci95(), decimals);
    stat = obs::CellStat{s.mean(), s.ci95(), s.n()};
  }
}

Cell Cell::tail(const Summary& s, int decimals) {
  if (!s.has_tail || s.tail.count() == 0) return Cell("-");
  const double p50 = s.tail.quantile(0.50);
  const double p99 = s.tail.quantile(0.99);
  const double p999 = s.tail.quantile(0.999);
  Cell cell(Table::num(p50, decimals) + "/" + Table::num(p99, decimals) + "/" +
            Table::num(p999, decimals));
  obs::CellStat stat;
  stat.n = static_cast<std::size_t>(s.tail.count());
  stat.has_tail = true;
  stat.p50 = p50;
  stat.p99 = p99;
  stat.p999 = p999;
  cell.stat = stat;
  return cell;
}

namespace {

// The value after the first `flag` in argv, `fallback` when the flag is
// absent. A missing, malformed or out-of-range value is a usage error.
std::size_t parse_count_flag(int argc, char** argv, const std::string& flag,
                             std::size_t lo, std::size_t hi,
                             std::size_t fallback) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] != flag) continue;
    std::size_t v = 0;
    if (!parse_flag(i + 1 < argc ? argv[i + 1] : nullptr, lo, hi, v)) {
      std::cerr << "usage: " << argv[0]
                << " [--reps 1..10000] [--jobs 0..1024 (0 = one per available"
                   " CPU)] [--json FILE] [--telemetry-dir DIR]\n";
      std::exit(2);
    }
    return v;
  }
  return fallback;
}

std::string parse_string_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) return argv[i + 1];
  }
  return {};
}

}  // namespace

Campaign::Campaign(std::string bench_name, int argc, char** argv)
    : reporter_(std::move(bench_name), argc, argv) {
  reps_ = parse_count_flag(argc, argv, "--reps", 1, 10000, 1);
  jobs_ = parse_count_flag(argc, argv, "--jobs", 0, 1024, 1);
  telemetry_dir_ = parse_string_flag(argc, argv, "--telemetry-dir");
  if (jobs_ == 0) {
    jobs_ = available_cpus();
  }
  // `reps` enters the JSON only when replication is on: the default document
  // stays identical to the pre-engine output, and `jobs` never enters it at
  // all (aggregates are jobs-invariant; recording J would break that).
  if (reps_ > 1) {
    reporter_.add_scalar("reps", static_cast<double>(reps_));
  }
}

Campaign::~Campaign() = default;

void Campaign::describe(std::ostream& os) const {
  if (reps_ <= 1) return;
  os << "replication: " << reps_ << " reps x " << jobs_
     << " jobs (independent seeds; cells are mean ±95% CI, Student-t)\n\n";
}

std::map<std::string, Summary> Campaign::replicate(std::uint64_t base_seed,
                                                   const RepFn& fn) {
  if (pool_ == nullptr && jobs_ > 1 && reps_ > 1) {
    pool_ = std::make_unique<ThreadPool>(std::min(jobs_, reps_));
  }
  ReplicateOptions opts;
  opts.reps = reps_;
  opts.base_seed = base_seed;
  if (!telemetry_dir_.empty()) {
    opts.out_dir = telemetry_dir_ + "/cell" + std::to_string(cells_);
  }
  ++cells_;
  try {
    return exp::replicate(opts, fn, pool_.get());
  } catch (const TelemetryExportError& e) {
    // exp::replicate rethrows only after every replication finished.
    std::cerr << "error: could not write telemetry to " << e.what() << "\n";
    pool_.reset();  // join the idle workers before leaving
    std::exit(1);
  }
}

void Campaign::emit(const std::string& title,
                    const std::vector<std::string>& columns,
                    const std::vector<std::vector<Cell>>& rows) {
  Table table(title, columns);
  obs::TableStats stats;
  for (const std::vector<Cell>& row : rows) {
    std::vector<std::string> cells;
    std::vector<std::optional<obs::CellStat>> stat_row;
    cells.reserve(row.size());
    stat_row.reserve(row.size());
    for (const Cell& cell : row) {
      cells.push_back(cell.text);
      stat_row.push_back(cell.stat);
    }
    table.add_row(std::move(cells));
    stats.push_back(std::move(stat_row));
  }
  reporter_.emit(table, std::move(stats));
}

int Campaign::finish() { return reporter_.finish(); }

}  // namespace vcl::exp
