// vcl_chaos: chaos soak runner with shrinking repros (DESIGN.md §9).
//
// Soak mode runs N seeded chaos episodes (correlated fault storms against
// the full-mitigation parking-lot cloud, invariant oracle attached) in
// parallel on exp::ThreadPool. Every episode is a pure function of its
// seed, so the first invariant violation found is replayed and
// delta-debugged (greedy chunk removal over the FaultPlan) down to a
// minimal failing schedule, written as a repro JSONL next to a
// vcl_traceview-ready trace export of the failing episode.
//
//   vcl_chaos --episodes 200 --seed 1            # soak; exit 1 on violation
//   vcl_chaos --storage --episodes 200           # storage service under chaos
//   vcl_chaos --repro chaos-out/repro.jsonl      # re-run one repro file
//
// Exit codes (the single authoritative statement is in usage()/--help;
// README's chaos section points here): soak 0 = all episodes clean,
// 1 = violation found (repro written), 2 = usage/IO error; repro mode
// 0 = the repro no longer reproduces (fixed), 3 = still reproduces,
// 2 = usage/IO error.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/chaos.h"
#include "exp/thread_pool.h"

using namespace vcl;

namespace {

struct Options {
  std::size_t episodes = 50;
  std::uint64_t seed = 1;
  int vehicles = 40;
  double duration = 120.0;
  double intensity = 1.0;
  bool storms = true;
  bool inject_requeue_bug = false;
  bool storage = false;
  bool inject_repair_bug = false;
  bool dag = false;
  bool inject_dag_bug = false;
  bool adversary = false;
  bool inject_revoked_bug = false;
  std::size_t jobs = 0;  // 0 = hardware concurrency
  std::string out_dir = "chaos-out";
  std::string repro_path;  // non-empty = repro mode
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --episodes N      seeded episodes to soak, 1..1000000\n"
      << "                    (default 50)\n"
      << "  --seed S          base seed, 0..2^64-1; episode i uses S+i\n"
      << "                    (default 1)\n"
      << "  --vehicles N      parked fleet size per episode, 1..100000\n"
      << "                    (default 40)\n"
      << "  --duration SEC    load window per episode, (0, 1e6] (default 120)\n"
      << "  --intensity X     fault/storm rate multiplier, [0, 1000]\n"
      << "                    (default 1.0)\n"
      << "  --no-storms       independent Poisson background only\n"
      << "  --jobs J          parallel episodes, 0..1024 (default 0 =\n"
      << "                    hardware)\n"
      << "  --out DIR         repro + trace + incident-bundle output dir\n"
      << "                    (default chaos-out; a failing episode writes\n"
      << "                    incident.jsonl there — render with vcl_incident)\n"
      << "  --repro FILE      re-run one repro file instead of soaking\n"
      << "  --storage         run the storage service (leases + quorum\n"
      << "                    replication + repair) under the chaos, with the\n"
      << "                    storage invariants armed and the storage-\n"
      << "                    targeted storm shape in the schedule\n"
      << "  --dag             run the DAG decomposition scheduler (generated\n"
      << "                    task graphs, reliability-aware replication)\n"
      << "                    under the chaos, with the DAG invariants armed\n"
      << "                    and the critical-path-chasing storm shape in\n"
      << "                    the schedule\n"
      << "  --adversary       run the SS-IV adversary under the chaos: sybil\n"
      << "                    bursts inside blackouts, CRL-propagation races,\n"
      << "                    replay floods — against the revocation-aware\n"
      << "                    admission/eviction defenses, with the auth\n"
      << "                    invariants armed\n"
      << "  --inject-requeue-bug  arm the deliberate requeue test-fixture bug\n"
      << "  --inject-repair-bug   arm the deliberate storage-repair bug\n"
      << "                        (implies --storage)\n"
      << "  --inject-dag-bug      arm the deliberate stranded-node DAG bug\n"
      << "                        (implies --dag)\n"
      << "  --inject-revoked-bug  arm the deliberate dropped-requeue bug in\n"
      << "                        the revocation eviction sweep (implies\n"
      << "                        --adversary)\n"
      << "\n"
      << "exit codes:\n"
      << "  soak mode:   0 = all episodes clean\n"
      << "               1 = invariant violation found (shrunk repro written)\n"
      << "               2 = usage or I/O error\n"
      << "  repro mode:  0 = the repro no longer reproduces (bug fixed)\n"
      << "               3 = the repro still reproduces the violation\n"
      << "               2 = usage or I/O error\n";
  return 2;
}

// A numeric flag value must be one whole token (no sign on unsigned
// flags, no trailing bytes), finite and inside [lo, hi]; anything else is a
// usage error, never an exception, a wrap-around or a NaN-length run.
template <typename T>
bool parse_flag(const char* text, T lo, T hi, T& out) {
  if (text == nullptr) return false;
  const std::string_view s(text);
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) return false;
  if (!(v >= lo && v <= hi)) return false;  // also rejects NaN
  out = v;
  return true;
}

core::ChaosScenarioConfig episode_config(const Options& opt,
                                         std::uint64_t seed) {
  core::ChaosScenarioConfig cfg;
  cfg.seed = seed;
  cfg.vehicles = opt.vehicles;
  cfg.duration = opt.duration;
  cfg.intensity = opt.intensity;
  cfg.storms = opt.storms;
  cfg.inject_requeue_bug = opt.inject_requeue_bug;
  cfg.storage = opt.storage;
  cfg.inject_repair_bug = opt.inject_repair_bug;
  cfg.dag = opt.dag;
  cfg.inject_dag_bug = opt.inject_dag_bug;
  cfg.adversary = opt.adversary;
  cfg.inject_revoked_bug = opt.inject_revoked_bug;
  return cfg;
}

void print_violations(const core::ChaosEpisode& episode) {
  for (const auto& v : episode.violations) {
    std::cout << "  " << v.to_string() << "\n";
  }
  if (episode.violation_count > episode.violations.size()) {
    std::cout << "  ... and "
              << episode.violation_count - episode.violations.size()
              << " more (storage capped)\n";
  }
}

int run_repro(const Options& opt) {
  std::ifstream in(opt.repro_path);
  if (!in) {
    std::cerr << "error: cannot open " << opt.repro_path << "\n";
    return 2;
  }
  core::ChaosScenarioConfig cfg;
  fault::FaultPlan plan;
  std::string error;
  if (!core::load_chaos_repro(in, cfg, plan, &error)) {
    std::cerr << "error: " << opt.repro_path << ": " << error << "\n";
    return 2;
  }
  std::cout << "replaying " << opt.repro_path << ": seed " << cfg.seed << ", "
            << plan.size() << " fault events, " << cfg.vehicles
            << " vehicles, " << cfg.duration << " s\n";
  std::filesystem::create_directories(opt.out_dir);
  const core::ChaosEpisode episode =
      core::run_chaos_episode(cfg, plan, opt.out_dir);
  std::cout << "episode: " << episode.submitted << " submitted, "
            << episode.completed << " completed, " << episode.expired
            << " expired, " << episode.crashes << " crashes, "
            << episode.checks_run << " oracle checks\n";
  if (cfg.storage) {
    std::cout << "storage: " << episode.storage_writes_acked
              << " writes acked, " << episode.storage_reads_quorum
              << " quorum reads, " << episode.storage_reads_degraded
              << " degraded reads, " << episode.storage_repair_copies
              << " repair copies\n";
  }
  if (cfg.dag) {
    std::cout << "dag: " << episode.dag_graphs_submitted << " graphs ("
              << episode.dag_graphs_completed << " completed, "
              << episode.dag_graphs_failed << " failed), "
              << episode.dag_nodes_succeeded << " nodes succeeded, "
              << episode.dag_backups << " backups\n";
  }
  if (cfg.adversary) {
    std::cout << "adversary: " << episode.sybil_claims << " sybil claims ("
              << episode.sybil_quarantined << " quarantined, "
              << episode.sybil_admitted << " admitted), "
              << episode.replays_seen << " replays ("
              << episode.replays_rejected << " rejected), "
              << episode.revocations << " revocations ("
              << episode.revoked_evictions << " evictions)\n";
  }
  if (episode.ok()) {
    std::cout << "repro is CLEAN (the failure no longer reproduces)\n";
    return 0;
  }
  std::cout << episode.violation_count << " invariant violation(s):\n";
  print_violations(episode);
  std::cout << "trace exported to " << opt.out_dir
            << "/trace.jsonl (vcl_traceview-ready)\n";
  if (episode.incident != nullptr) {
    std::cout << "incident bundle written to " << opt.out_dir
              << "/incident.jsonl (render with vcl_incident)\n";
  }
  return 3;
}

int run_soak(const Options& opt) {
  const std::size_t jobs =
      opt.jobs > 0 ? opt.jobs
                   : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::cout << "soaking " << opt.episodes << " episodes (seeds " << opt.seed
            << ".." << opt.seed + opt.episodes - 1 << ", " << opt.vehicles
            << " vehicles, " << opt.duration << " s load, intensity "
            << opt.intensity << (opt.storms ? ", storms on" : ", storms off")
            << (opt.storage ? ", storage on" : "")
            << (opt.dag ? ", dag on" : "")
            << (opt.adversary ? ", adversary on" : "") << ") on " << jobs
            << " threads\n";

  std::vector<core::ChaosEpisode> episodes(opt.episodes);
  std::vector<char> ran(opt.episodes, 0);
  std::atomic<bool> stop{false};
  {
    exp::ThreadPool pool(jobs);
    std::vector<std::future<void>> futures;
    futures.reserve(opt.episodes);
    for (std::size_t i = 0; i < opt.episodes; ++i) {
      futures.push_back(pool.submit([&, i] {
        if (stop.load(std::memory_order_relaxed)) return;
        episodes[i] = core::run_chaos_episode(
            episode_config(opt, opt.seed + i));
        ran[i] = 1;
        if (!episodes[i].ok()) stop.store(true, std::memory_order_relaxed);
      }));
    }
    for (auto& f : futures) f.get();
  }

  // Lowest-index failure wins so the reported seed is deterministic even
  // though the pool finishes episodes in a nondeterministic order.
  std::size_t completed_clean = 0;
  std::size_t failing = opt.episodes;
  for (std::size_t i = 0; i < opt.episodes; ++i) {
    if (!ran[i]) continue;
    if (!episodes[i].ok() && failing == opt.episodes) failing = i;
    if (episodes[i].ok()) ++completed_clean;
  }

  if (failing == opt.episodes) {
    std::size_t checks = 0;
    for (std::size_t i = 0; i < opt.episodes; ++i) checks += episodes[i].checks_run;
    std::cout << "OK: " << completed_clean << " episodes, " << checks
              << " oracle checks, zero invariant violations\n";
    if (opt.storage) {
      std::size_t acked = 0, degraded = 0, repairs = 0;
      for (const core::ChaosEpisode& e : episodes) {
        acked += e.storage_writes_acked;
        degraded += e.storage_reads_degraded;
        repairs += e.storage_repair_copies;
      }
      std::cout << "storage: " << acked << " writes acked, " << degraded
                << " degraded reads, " << repairs << " repair copies\n";
    }
    if (opt.dag) {
      std::size_t graphs = 0, done = 0, failed = 0, backups = 0;
      for (const core::ChaosEpisode& e : episodes) {
        graphs += e.dag_graphs_submitted;
        done += e.dag_graphs_completed;
        failed += e.dag_graphs_failed;
        backups += e.dag_backups;
      }
      std::cout << "dag: " << graphs << " graphs (" << done << " completed, "
                << failed << " failed), " << backups << " backups\n";
    }
    if (opt.adversary) {
      std::size_t claims = 0, quarantined = 0, replays = 0, rejected = 0,
                   revoked = 0, evicted = 0;
      for (const core::ChaosEpisode& e : episodes) {
        claims += e.sybil_claims;
        quarantined += e.sybil_quarantined;
        replays += e.replays_seen;
        rejected += e.replays_rejected;
        revoked += e.revocations;
        evicted += e.revoked_evictions;
      }
      std::cout << "adversary: " << claims << " sybil claims (" << quarantined
                << " quarantined), " << replays << " replays (" << rejected
                << " rejected), " << revoked << " revocations (" << evicted
                << " evictions)\n";
    }
    return 0;
  }

  const std::uint64_t bad_seed = opt.seed + failing;
  const core::ChaosEpisode& bad = episodes[failing];
  std::cout << "FAIL: episode seed " << bad_seed << " ("
            << bad.plan.size() << " fault events) violated "
            << bad.violation_count << " invariant check(s):\n";
  print_violations(bad);

  const core::ChaosScenarioConfig cfg = episode_config(opt, bad_seed);
  std::cout << "shrinking fault plan (" << bad.plan.size()
            << " events) ...\n";
  std::size_t shrink_runs = 0;
  const fault::FaultPlan minimal = fault::shrink_fault_plan(
      bad.plan, [&](const fault::FaultPlan& candidate) {
        ++shrink_runs;
        return !core::run_chaos_episode(cfg, candidate).ok();
      });
  std::cout << "shrunk to " << minimal.size() << " event(s) in "
            << shrink_runs << " episode runs:\n";
  for (const fault::FaultEvent& e : minimal) {
    std::cout << "  " << fault::to_string(e) << "\n";
  }

  std::filesystem::create_directories(opt.out_dir);
  const std::string repro_path = opt.out_dir + "/repro.jsonl";
  {
    std::ofstream out(repro_path);
    core::write_chaos_repro(cfg, minimal, out);
  }
  // Re-run the minimal schedule once more with telemetry on: the exported
  // trace.jsonl is the post-mortem view of the exact failing episode.
  const core::ChaosEpisode final_run =
      core::run_chaos_episode(cfg, minimal, opt.out_dir);
  std::cout << "repro written to " << repro_path << " (re-run with --repro)\n"
            << "trace exported to " << opt.out_dir
            << "/trace.jsonl (vcl_traceview-ready); final run: "
            << final_run.violation_count << " violation(s)\n";
  if (final_run.incident != nullptr) {
    std::cout << "incident bundle written to " << opt.out_dir
              << "/incident.jsonl (render with vcl_incident)\n";
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--episodes") {
      if (!parse_flag<std::size_t>(next(), 1, 1000000, opt.episodes)) {
        return usage(argv[0]);
      }
    } else if (arg == "--seed") {
      if (!parse_flag<std::uint64_t>(
              next(), 0, std::numeric_limits<std::uint64_t>::max(),
              opt.seed)) {
        return usage(argv[0]);
      }
    } else if (arg == "--vehicles") {
      if (!parse_flag(next(), 1, 100000, opt.vehicles)) return usage(argv[0]);
    } else if (arg == "--duration") {
      // A zero-length window has no load; a NaN one never ends.
      if (!parse_flag(next(), std::numeric_limits<double>::min(), 1e6,
                      opt.duration)) {
        return usage(argv[0]);
      }
    } else if (arg == "--intensity") {
      if (!parse_flag(next(), 0.0, 1000.0, opt.intensity)) {
        return usage(argv[0]);
      }
    } else if (arg == "--jobs") {
      if (!parse_flag<std::size_t>(next(), 0, 1024, opt.jobs)) {
        return usage(argv[0]);
      }
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.out_dir = v;
    } else if (arg == "--repro") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.repro_path = v;
    } else if (arg == "--no-storms") {
      opt.storms = false;
    } else if (arg == "--storage") {
      opt.storage = true;
    } else if (arg == "--inject-requeue-bug") {
      opt.inject_requeue_bug = true;
    } else if (arg == "--inject-repair-bug") {
      opt.inject_repair_bug = true;
      opt.storage = true;  // the bug lives in the storage repair pipeline
    } else if (arg == "--dag") {
      opt.dag = true;
    } else if (arg == "--inject-dag-bug") {
      opt.inject_dag_bug = true;
      opt.dag = true;  // the bug lives in the DAG resubmit path
    } else if (arg == "--adversary") {
      opt.adversary = true;
    } else if (arg == "--inject-revoked-bug") {
      opt.inject_revoked_bug = true;
      opt.adversary = true;  // the bug lives in the revocation sweep
    } else {
      return usage(argv[0]);
    }
  }
  if (!opt.repro_path.empty()) return run_repro(opt);
  return run_soak(opt);
}
