// E22 — Dependability under injected faults (paper §III).
//
// A stationary parking-lot cloud serves a steady deadline-bearing task
// stream while a FaultPlan injects vehicle crashes, broker crashes and
// radio blackout windows. The SAME scenario seed is used for every
// mitigation mode at a given fault intensity, so all modes face the
// *identical* fault schedule (plans are drawn from a dedicated forked RNG
// stream) and differences are attributable to the recovery machinery:
//
//   none         no detector/retry/checkpoint — a crashed worker is a
//                zombie forever; its task hangs until the deadline reaper
//                expires it (the paper's no-recovery collapse);
//   detect       heartbeat failure detector only: crashes are noticed after
//                k missed beats, tasks re-queue FROM ZERO;
//   detect+ckpt  + periodic checkpoints: a crash loses only the delta since
//                the last checkpoint;
//   full         + ack/retry with exponential backoff for dispatch/result
//                and speculative replicas for deadline tasks.
//
// Expected shape: completion(none) collapses as the crash rate grows;
// detect recovers most of it; checkpointing cuts wasted work vs
// requeue-from-zero; full buys the last few points of completion at the
// price of redundant replica work.
//
// Runs through the experiment engine: an exp::Sweep spans the crash-rate x
// mode grid and exp::Campaign replicates each cell (--reps N --jobs J).
// Replication keeps the identical-fault-schedule property: replication r
// uses the same derived seed in every cell, so at a given intensity all
// modes still face the same fault plans. The default --reps 1 reproduces
// the historical single-seed output byte-for-byte.
#include <iostream>

#include "core/system.h"
#include "exp/campaign.h"
#include "exp/sweep.h"
#include "util/table.h"

using namespace vcl;

namespace {

struct Mode {
  std::string name;
  vcloud::DependabilityConfig dep;
};

std::vector<Mode> modes() {
  Mode none;
  none.name = "none";

  Mode detect;
  detect.name = "detect";
  detect.dep.detector.enabled = true;
  // 50 parked transmitters add ~0.2 contention loss per beat; k=6 keeps the
  // baseline false-positive rate negligible while blackouts still trip it.
  detect.dep.detector.missed_beats_to_kill = 6;

  Mode ckpt = detect;
  ckpt.name = "detect+ckpt";
  ckpt.dep.checkpoint.enabled = true;
  ckpt.dep.checkpoint.period = 5.0;

  return {none, detect, ckpt, {"full", vcloud::full_mitigation()}};
}

exp::RepReport run_cell(const core::SystemConfig& cfg,
                        const std::string& out_dir) {
  core::VehicularCloudSystem system(cfg);
  system.start();

  // Heavy enough that roughly half the fleet is busy at any time: a crash
  // usually lands on a mid-flight task, which is what the modes differ on.
  vcloud::WorkloadGenerator workload({30.0, 1.0, 0.2, 60.0},
                                     system.scenario().fork_rng(77));
  auto& sim = system.scenario().simulator();
  sim.schedule_every(0.5, [&] {
    if (sim.now() < 240.0) system.cloud().submit(workload.next(sim.now()));
  });
  // 240 s of load + 60 s of drain (deadlines settle everything in flight).
  system.run_for(300.0);

  if (!out_dir.empty() && system.telemetry() != nullptr) {
    exp::export_telemetry(*system.telemetry(), out_dir);
  }

  const vcloud::CloudStats& s = system.cloud().stats();
  exp::RepReport rep;
  double crashes = 0;
  if (system.injector() != nullptr) {
    crashes = static_cast<double>(system.injector()->stats().vehicle_crashes +
                                  system.injector()->stats().broker_crashes);
  }
  rep.value("crashes", crashes);
  rep.value("completed", static_cast<double>(s.completed));
  rep.value("expired", static_cast<double>(s.expired));
  rep.value("completion", s.completion_rate());
  rep.value("wasted", s.wasted_work);
  rep.value("redundant", s.redundant_work);
  rep.value("retries", static_cast<double>(s.retries));
  rep.value("kills", static_cast<double>(s.crash_kills));
  rep.value("fp_kills", static_cast<double>(s.false_positive_kills));
  rep.value("det_lat", s.detection_latency.mean());
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Campaign campaign("bench_dependability", argc, argv);

  std::cout << "E22 (paper §III): task dependability under injected faults\n"
            << "50 parked workers, task every 0.5 s (mean work 30, deadline "
               "60 s),\n300 s per cell; every mode at a given intensity faces "
               "the identical\nfault schedule (same seed, dedicated plan RNG "
               "stream).\n\n";
  campaign.describe(std::cout);

  exp::Sweep<core::SystemConfig> sweep;
  auto& rate_axis = sweep.axis("crash_rate");
  for (const double rate : {0.0, 0.02, 0.05}) {
    rate_axis.point(Table::num(rate, 2), [rate](core::SystemConfig& c) {
      c.faults.horizon = 240.0;
      c.faults.vehicle_crash_rate = rate;
      c.faults.broker_crash_rate = rate / 4.0;
      c.faults.blackout_rate = rate > 0.0 ? 0.01 : 0.0;
      c.faults.blackout_mean_duration = 5.0;
      c.faults.blackout_radius = 400.0;
    });
  }
  auto& mode_axis = sweep.axis("mode");
  for (const Mode& mode : modes()) {
    mode_axis.point(mode.name, [dep = mode.dep](core::SystemConfig& c) {
      c.cloud.dependability = dep;
    });
  }

  // Cell label ("rate/mode") -> metric summaries, for the epilogue checks.
  std::map<std::string, std::map<std::string, exp::Summary>> by_cell;
  std::vector<std::vector<exp::Cell>> rows;
  for (const auto& cell : sweep.cells()) {
    const auto summary =
        campaign.replicate(1234, [&cell](const exp::RepContext& ctx) {
          core::SystemConfig cfg;
          cfg.scenario.environment = core::Environment::kParkingLot;
          cfg.scenario.vehicles = 50;
          cfg.scenario.vehicles_parked = true;
          cfg.architecture = core::CloudArchitecture::kStationary;
          cfg.stationary_radius = 5000.0;
          // Shared across every mode at this intensity: identical fault plan.
          cfg.scenario.seed = ctx.seed;
          // --telemetry-dir: this replication exports its trace + metrics
          // into its own pre-created rep directory.
          if (!ctx.out_dir.empty()) {
            cfg.telemetry.tracing = true;
            cfg.telemetry.metrics = true;
          }
          return run_cell(cell.make(cfg), ctx.out_dir);
        });
    rows.push_back({exp::Cell(cell.labels[0]), exp::Cell(cell.labels[1]),
                    exp::Cell(summary.at("crashes"), 0),
                    exp::Cell(summary.at("completed"), 0),
                    exp::Cell(summary.at("expired"), 0),
                    exp::Cell(summary.at("completion"), 2),
                    exp::Cell(summary.at("wasted"), 1),
                    exp::Cell(summary.at("redundant"), 1),
                    exp::Cell(summary.at("retries"), 0),
                    exp::Cell(summary.at("kills"), 0),
                    exp::Cell(summary.at("fp_kills"), 0),
                    exp::Cell(summary.at("det_lat"), 2)});
    by_cell[cell.label()] = summary;
  }
  campaign.emit("E22: completion and overheads by mitigation mode",
                {"crash_rate", "mode", "crashes", "completed", "expired",
                 "completion", "wasted", "redundant", "retries", "kills",
                 "fp_kills", "det_lat_s"},
                rows);

  // Qualitative acceptance checks (printed, not asserted: this is a bench).
  // With replication on, the checks compare cross-replication means.
  const std::string high = Table::num(0.05, 2);
  const auto& none_hi = by_cell.at(high + "/none");
  const auto& detect_hi = by_cell.at(high + "/detect");
  const auto& ckpt_hi = by_cell.at(high + "/detect+ckpt");
  const auto& full_hi = by_cell.at(high + "/full");
  const double none_completion = none_hi.at("completion").mean();
  const double full_completion = full_hi.at("completion").mean();
  const double detect_wasted = detect_hi.at("wasted").mean();
  const double ckpt_wasted = ckpt_hi.at("wasted").mean();
  const bool recovery_wins = full_completion > none_completion;
  const bool ckpt_cheaper = ckpt_wasted < detect_wasted;
  std::cout << "\n[" << (recovery_wins ? "PASS" : "FAIL")
            << "] full recovery completes more than no recovery at crash "
               "rate "
            << 0.05 << " (" << Table::num(full_completion, 2) << " vs "
            << Table::num(none_completion, 2) << ")\n";
  std::cout << "[" << (ckpt_cheaper ? "PASS" : "FAIL")
            << "] checkpointed recovery wastes less work than "
               "requeue-from-zero ("
            << Table::num(ckpt_wasted, 1) << " vs "
            << Table::num(detect_wasted, 1) << ")\n";
  std::cout << "\nShape vs paper §III: with no failure detection a crashed\n"
               "worker silently pins its task until the deadline reaper\n"
               "fires — completion collapses with fault intensity. Heartbeat\n"
               "detection restores most completion at the cost of detection\n"
               "latency and occasional false-positive kills under radio\n"
               "blackouts; checkpoints shrink the wasted-work bill; retry +\n"
               "speculation trade redundant compute for the last points of\n"
               "completion.\n";
  return campaign.finish();
}
