#include "exp/replicator.h"

#include <filesystem>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace vcl::exp {

QuantileSketch& RepReport::tail(const std::string& name) {
  return tails_.try_emplace(name).first->second;
}

std::uint64_t rep_seed(std::uint64_t base_seed, std::size_t rep) {
  if (rep == 0) return base_seed;
  return Rng(base_seed).fork(rep).seed();
}

namespace {

// Fixed-order reduction: replication r's metrics are folded after r-1's, so
// the result is independent of which worker finished first.
std::map<std::string, Summary> reduce(const std::vector<RepReport>& reports) {
  std::map<std::string, Summary> out;
  for (const RepReport& report : reports) {
    for (const auto& [name, acc] : report.metrics()) {
      if (acc.count() == 0) continue;
      out[name].across.add(acc.mean());
    }
    for (const auto& [name, sketch] : report.tails()) {
      if (sketch.count() == 0) continue;
      Summary& s = out[name];
      s.tail.merge(sketch);
      s.has_tail = true;
    }
  }
  return out;
}

}  // namespace

std::map<std::string, Summary> replicate(const ReplicateOptions& opts,
                                         const RepFn& fn, ThreadPool* pool) {
  const std::size_t reps = std::max<std::size_t>(opts.reps, 1);
  std::vector<RepReport> reports(reps);

  // Per-rep export dirs are created serially up front: replications then
  // only ever write inside their own tree, so the parallel phase needs no
  // filesystem coordination. Creation is best-effort — the writer
  // (exp::export_telemetry) surfaces the failure when the replication tries
  // to export.
  std::vector<std::string> rep_dirs(reps);
  if (!opts.out_dir.empty()) {
    for (std::size_t r = 0; r < reps; ++r) {
      rep_dirs[r] = opts.out_dir + "/rep" + std::to_string(r);
      std::error_code ec;
      std::filesystem::create_directories(rep_dirs[r], ec);
    }
  }

  if (pool == nullptr || reps == 1) {
    for (std::size_t r = 0; r < reps; ++r) {
      reports[r] = fn(RepContext{r, rep_seed(opts.base_seed, r), rep_dirs[r]});
    }
    return reduce(reports);
  }

  std::vector<std::future<void>> futures;
  futures.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    futures.push_back(pool->submit([&fn, &reports, &rep_dirs, r, &opts] {
      reports[r] = fn(RepContext{r, rep_seed(opts.base_seed, r), rep_dirs[r]});
    }));
  }
  // Drain every future before rethrowing so no task outlives `reports`.
  std::exception_ptr first;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
  return reduce(reports);
}

}  // namespace vcl::exp
