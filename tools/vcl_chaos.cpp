// vcl_chaos: chaos soak runner with shrinking repros (DESIGN.md §9).
//
// Soak mode runs N seeded chaos episodes (correlated fault storms against
// the full-mitigation parking-lot cloud, invariant oracle attached) in
// parallel on a ThreadPool. Every episode is a pure function of its
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
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "core/chaos.h"
#include "util/flags.h"
#include "util/thread_pool.h"

using namespace vcl;

namespace {

struct Options {
  std::size_t episodes = 50;
  core::ChaosScenarioConfig scenario;  // episode i runs scenario.seed + i
  std::size_t jobs = 0;  // 0 = one per available CPU
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
      << "                    one per available CPU)\n"
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
      << "  --inject-bug NAME arm one deliberate bug: requeue (crash recovery\n"
      << "                    never re-queues), repair (storage repair drops\n"
      << "                    replicas; implies --storage), dag (a failed\n"
      << "                    DAG node is stranded; implies --dag) or revoked\n"
      << "                    (the revocation sweep drops held work; implies\n"
      << "                    --adversary)\n"
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

// Creates the output directory; on failure prints why (the caller exits 2,
// the IO code).
bool make_out_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::cerr << "error: cannot create " << dir << ": " << ec.message()
              << "\n";
  }
  return !ec;
}

bool exported(const core::ChaosEpisode& episode, const std::string& dir) {
  if (episode.telemetry_failed) {
    std::cerr << "error: could not write telemetry to " << dir << "\n";
  }
  return !episode.telemetry_failed;
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
  if (!make_out_dir(opt.out_dir)) return 2;
  const core::ChaosEpisode episode =
      core::run_chaos_episode(cfg, plan, opt.out_dir);
  if (!exported(episode, opt.out_dir)) return 2;
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
  const core::ChaosScenarioConfig& sc = opt.scenario;
  const std::size_t jobs = opt.jobs > 0 ? opt.jobs : available_cpus();
  std::cout << "soaking " << opt.episodes << " episodes (seeds " << sc.seed
            << ".." << sc.seed + opt.episodes - 1 << ", " << sc.vehicles
            << " vehicles, " << sc.duration << " s load, intensity "
            << sc.intensity << (sc.storms ? ", storms on" : ", storms off")
            << (sc.storage ? ", storage on" : "")
            << (sc.dag ? ", dag on" : "")
            << (sc.adversary ? ", adversary on" : "") << ") on " << jobs
            << " threads\n";

  std::vector<core::ChaosEpisode> episodes(opt.episodes);
  // Lowest failing index so far. Only episodes above it are skipped, so
  // every episode below the final value runs and the reported seed is the
  // lowest failing one, whatever order the pool runs episodes in.
  std::atomic<std::size_t> lowest_failing{opt.episodes};
  {
    ThreadPool pool(jobs);
    std::vector<std::future<void>> futures;
    futures.reserve(opt.episodes);
    for (std::size_t i = 0; i < opt.episodes; ++i) {
      futures.push_back(pool.submit([&, i] {
        if (i > lowest_failing.load()) return;
        core::ChaosScenarioConfig cfg = sc;
        cfg.seed += i;
        episodes[i] = core::run_chaos_episode(cfg);
        if (episodes[i].ok()) return;
        std::size_t seen = lowest_failing.load();
        while (i < seen && !lowest_failing.compare_exchange_weak(seen, i)) {
        }
      }));
    }
    for (auto& f : futures) f.get();
  }

  const std::size_t failing = lowest_failing.load();
  if (failing == opt.episodes) {
    using E = core::ChaosEpisode;
    const auto sum = [&episodes](std::size_t E::*field) {
      std::size_t total = 0;
      for (const E& e : episodes) total += e.*field;
      return total;
    };
    std::cout << "OK: " << opt.episodes << " episodes, " << sum(&E::checks_run)
              << " oracle checks, zero invariant violations\n";
    if (sc.storage) {
      std::cout << "storage: " << sum(&E::storage_writes_acked)
                << " writes acked, " << sum(&E::storage_reads_degraded)
                << " degraded reads, " << sum(&E::storage_repair_copies)
                << " repair copies\n";
    }
    if (sc.dag) {
      std::cout << "dag: " << sum(&E::dag_graphs_submitted) << " graphs ("
                << sum(&E::dag_graphs_completed) << " completed, "
                << sum(&E::dag_graphs_failed) << " failed), "
                << sum(&E::dag_backups) << " backups\n";
    }
    if (sc.adversary) {
      std::cout << "adversary: " << sum(&E::sybil_claims) << " sybil claims ("
                << sum(&E::sybil_quarantined) << " quarantined), "
                << sum(&E::replays_seen) << " replays ("
                << sum(&E::replays_rejected) << " rejected), "
                << sum(&E::revocations) << " revocations ("
                << sum(&E::revoked_evictions) << " evictions)\n";
    }
    return 0;
  }

  const std::uint64_t bad_seed = sc.seed + failing;
  const core::ChaosEpisode& bad = episodes[failing];
  std::cout << "FAIL: episode seed " << bad_seed << " ("
            << bad.plan.size() << " fault events) violated "
            << bad.violation_count << " invariant check(s):\n";
  print_violations(bad);

  core::ChaosScenarioConfig cfg = sc;
  cfg.seed = bad_seed;
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

  if (!make_out_dir(opt.out_dir)) return 2;
  const std::string repro_path = opt.out_dir + "/repro.jsonl";
  {
    std::ofstream out(repro_path);
    core::write_chaos_repro(cfg, minimal, out);
    if (!out.flush()) {
      std::cerr << "error: could not write " << repro_path << "\n";
      return 2;
    }
  }
  // Re-run the minimal schedule once more with telemetry on: the exported
  // trace.jsonl is the post-mortem view of the exact failing episode.
  const core::ChaosEpisode final_run =
      core::run_chaos_episode(cfg, minimal, opt.out_dir);
  if (!exported(final_run, opt.out_dir)) return 2;
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
  core::ChaosScenarioConfig& sc = opt.scenario;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    bool ok = true;
    if (arg == "--episodes") {
      ok = parse_flag<std::size_t>(next(), 1, 1000000, opt.episodes);
    } else if (arg == "--seed") {
      ok = parse_flag<std::uint64_t>(
          next(), 0, std::numeric_limits<std::uint64_t>::max(), sc.seed);
    } else if (arg == "--vehicles") {
      ok = parse_flag(next(), 1, 100000, sc.vehicles);
    } else if (arg == "--duration") {
      // A zero-length window has no load; a NaN one never ends.
      ok = parse_flag(next(), std::numeric_limits<double>::min(), 1e6,
                      sc.duration);
    } else if (arg == "--intensity") {
      ok = parse_flag(next(), 0.0, 1000.0, sc.intensity);
    } else if (arg == "--jobs") {
      ok = parse_flag<std::size_t>(next(), 0, 1024, opt.jobs);
    } else if (arg == "--out" || arg == "--repro") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) (arg == "--out" ? opt.out_dir : opt.repro_path) = v;
    } else if (arg == "--no-storms") {
      sc.storms = false;
    } else if (arg == "--storage") {
      sc.storage = true;
    } else if (arg == "--dag") {
      sc.dag = true;
    } else if (arg == "--adversary") {
      sc.adversary = true;
    } else if (arg == "--inject-bug") {
      const char* name = next();
      const core::SeededBugName* bug =
          name == nullptr ? nullptr : core::find_seeded_bug(name);
      // One bug per run: a second --inject-bug is a usage error too.
      ok = bug != nullptr && sc.seeded_bug == vcloud::SeededBug::kNone;
      if (ok) bug->arm(sc);
    } else {
      ok = false;
    }
    if (!ok) return usage(argv[0]);
  }
  if (!opt.repro_path.empty()) return run_repro(opt);
  return run_soak(opt);
}
