// E11 — Network-layer attacks and defenses (§III threat list).
//
// Three attack families against the same city scenario:
//   * suppression: malicious relays drop forwarded messages — delivery vs
//     attacker fraction;
//   * DoS flooding: junk traffic erodes reception — delivery and cloud task
//     completion before/during the flood;
//   * replay: captured authenticated messages re-injected — acceptance with
//     and without the freshness defense.
#include <iostream>

#include "attack/dos.h"
#include "attack/replay.h"
#include "attack/suppression.h"
#include "core/scenario.h"
#include "routing/greedy_geo.h"
#include "core/system.h"
#include "obs/bench_output.h"
#include "util/table.h"

using namespace vcl;

namespace {

double run_suppression(double attacker_fraction, std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.vehicles = 80;
  cfg.seed = seed;
  core::Scenario scenario(cfg);
  scenario.start();
  scenario.run_for(5.0);

  attack::AdversaryRoster roster;
  Rng rng(seed ^ 0xabc);
  roster.recruit(scenario.traffic(), attacker_fraction, rng);
  attack::SuppressedGreedyRouter router(scenario.network(), roster,
                                        attack::SuppressionConfig{1.0, 0.0},
                                        rng.fork(1));
  router.attach();
  scenario.network().refresh();

  Rng pick(seed ^ 0xdef);
  scenario.simulator().schedule_every(0.5, [&] {
    std::vector<VehicleId> ids;
    for (const auto& [vid, v] : scenario.traffic().vehicles()) {
      ids.push_back(v.id);
    }
    if (ids.size() < 2) return;
    const VehicleId src = pick.pick(ids);
    const VehicleId dst = pick.pick(ids);
    if (!(src == dst)) router.originate(src, dst);
  });
  scenario.run_for(40.0);
  return router.metrics().delivery_ratio();
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_attack_resilience", argc, argv);

  std::cout << "E11: attack resilience\n\n";

  // ---- suppression sweep -----------------------------------------------------
  Table sup_table("suppression: delivery vs malicious-relay fraction "
                  "(greedy-geo, 80 vehicles)",
                  {"attacker_fraction", "delivery_ratio"});
  for (const double frac : {0.0, 0.1, 0.2, 0.3, 0.5}) {
    sup_table.add_row(
        {Table::num(frac, 1), Table::num(run_suppression(frac, 321), 3)});
  }
  reporter.emit(sup_table);

  // ---- DoS -------------------------------------------------------------------
  // Junk flooding erodes channel reception; measured as multi-hop delivery
  // of a steady unicast workload before / during / after the flood.
  {
    core::ScenarioConfig cfg;
    cfg.vehicles = 80;
    cfg.seed = 5;
    core::Scenario scenario(cfg);
    scenario.start();
    scenario.run_for(5.0);

    routing::GreedyGeo router(scenario.network());
    router.attach();
    scenario.network().refresh();
    Rng pick(6);
    scenario.simulator().schedule_every(0.5, [&] {
      std::vector<VehicleId> ids;
      for (const auto& [vid, v] : scenario.traffic().vehicles()) {
        ids.push_back(v.id);
      }
      if (ids.size() < 2) return;
      const VehicleId src = pick.pick(ids);
      const VehicleId dst = pick.pick(ids);
      if (!(src == dst)) router.originate(src, dst);
    });

    attack::AdversaryRoster roster;
    Rng rng(9);
    roster.recruit(scenario.traffic(), 0.15, rng);
    attack::DosFlooder flooder(scenario.network(), roster, 1500.0);

    struct PhaseResult {
      double delivery;
      double hop_success;  // per-transmission channel success
      double delay;
    };
    auto phase = [&](double seconds) {
      const auto o0 = router.metrics().originated();
      const auto d0 = router.metrics().delivered();
      const auto s0 = scenario.network().stats().unicast_sent;
      const auto u0 = scenario.network().stats().unicast_delivered;
      scenario.run_for(seconds);
      const auto o1 = router.metrics().originated();
      const auto d1 = router.metrics().delivered();
      const auto s1 = scenario.network().stats().unicast_sent;
      const auto u1 = scenario.network().stats().unicast_delivered;
      PhaseResult r{};
      r.delivery = o1 > o0 ? static_cast<double>(d1 - d0) /
                                 static_cast<double>(o1 - o0)
                           : 0.0;
      r.hop_success = s1 > s0 ? static_cast<double>(u1 - u0) /
                                    static_cast<double>(s1 - s0)
                              : 0.0;
      r.delay = router.metrics().delay().mean();
      return r;
    };

    Table dos_table("DoS flood (15% of vehicles, 1500 junk msg/s each)",
                    {"phase", "delivery_ratio", "hop_success",
                     "cum_mean_delay_s"});
    auto add = [&](const char* label, const PhaseResult& r) {
      dos_table.add_row({label, Table::num(r.delivery, 3),
                         Table::num(r.hop_success, 3),
                         Table::num(r.delay, 2)});
    };
    add("before (60s)", phase(60.0));
    flooder.start();
    add("during flood (60s)", phase(60.0));
    flooder.stop();
    add("after (60s)", phase(60.0));
    reporter.emit(dos_table);
    std::cout << "junk messages transmitted: " << flooder.junk_sent()
              << "\n\n";
  }

  // ---- replay ------------------------------------------------------------------
  {
    auth::TrustedAuthority ta(1);
    ta.register_vehicle(VehicleId{1});
    auth::PseudonymAuth signer(ta, VehicleId{1}, 8);
    attack::ReplayAttacker attacker;
    attack::FreshnessChecker checker(2.0);
    crypto::OpCounts ops;

    std::size_t accepted_no_defense = 0;
    std::size_t accepted_with_defense = 0;
    const int n = 100;
    // Legitimate phase: capture everything on the air.
    for (int i = 0; i < n; ++i) {
      const auto payload = attack::make_fresh_payload(
          {1, 2, 3}, i * 0.1, static_cast<std::uint64_t>(i));
      const auto tag = signer.sign(payload, i * 0.1, ops);
      attacker.capture(payload, *tag, i * 0.1);
      (void)checker.accept(payload, i * 0.1);  // receivers consume nonces
    }
    // Replay phase, 60 s later.
    for (const auto& captured : attacker.log()) {
      const bool sig_ok =
          auth::PseudonymAuth::verify(ta, captured.payload, captured.tag).ok;
      if (sig_ok) ++accepted_no_defense;
      if (sig_ok && checker.accept(captured.payload, 60.0 + captured.captured_at)) {
        ++accepted_with_defense;
      }
    }
    Table replay_table("replay of 100 captured authenticated messages",
                       {"defense", "replays_accepted"});
    replay_table.add_row({"signature check only",
                          std::to_string(accepted_no_defense)});
    replay_table.add_row({"+ freshness (timestamp+nonce)",
                          std::to_string(accepted_with_defense)});
    reporter.emit(replay_table);
  }

  std::cout
      << "Shape vs §III: suppression quietly halves delivery well below a\n"
         "majority of relays; DoS collapses per-hop reception and dents\n"
         "end-to-end delivery while active (the >1 'after' ratio is the\n"
         "carried backlog draining once the channel clears); replay defeats\n"
         "pure signature checking and is fully stopped by binding\n"
         "timestamp+nonce into the signed payload.\n";
  return reporter.finish();
}
