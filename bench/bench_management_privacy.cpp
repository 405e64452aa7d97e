// E17 — Management vs privacy (§V.A).
//
// The paper: "the authority should be able to recover the snapshot of the
// topology in an area so as to identify the attackers ... the more
// management data recorded, the more possible that the user privacy will be
// violated."
//
// Part 1 measures both sides of that sentence: snapshot retention sweep →
// forensic recall (can the authority place the attacker at the incident,
// after the fact?) vs location records held (privacy exposure).
// Part 2: traffic-flow analysis — how reliably transmission volume alone
// unmasks coordinators, and what uniform-padding defenses cost.
#include <iostream>

#include <set>

#include "attack/flow_analysis.h"
#include "cluster/moving_zone.h"
#include "core/scenario.h"
#include "core/snapshot.h"
#include "obs/bench_output.h"
#include "util/table.h"

using namespace vcl;

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_management_privacy", argc, argv);

  std::cout << "E17: management forensics vs privacy exposure\n\n";

  // ---- Part 1: snapshot retention -------------------------------------------
  // An incident occurs at t=60 near the map center; the investigation opens
  // at t_investigate. Forensic recall = was the "attacker" (a designated
  // vehicle known to ground truth) captured near the scene in the window?
  Table snap_table("snapshot retention vs forensic recall & exposure "
                   "(5 s snapshots, investigation at t=180)",
                   {"retention_snapshots", "window_s", "attacker_found",
                    "location_records_held"});
  for (const std::size_t retention : {6UL, 12UL, 24UL, 48UL}) {
    core::ScenarioConfig cfg;
    cfg.vehicles = 60;
    cfg.seed = 31;
    core::Scenario scenario(cfg);
    scenario.start();
    core::TopologyArchive archive(scenario.network(), retention);
    archive.attach();

    // Ground truth: at t=60 note which vehicle is nearest the center (the
    // "attacker at the incident").
    const auto [lo, hi] = scenario.road().bounding_box();
    const geo::Vec2 scene{(lo.x + hi.x) / 2, (lo.y + hi.y) / 2};
    VehicleId attacker;
    scenario.simulator().schedule_at(60.0, [&] {
      double best = 1e300;
      for (const auto& [vid, v] : scenario.traffic().vehicles()) {
        const double d = geo::distance(v.pos, scene);
        if (d < best) {
          best = d;
          attacker = v.id;
        }
      }
    });
    scenario.run_for(180.0);

    // Investigation: query the archive around the scene, t in [55, 65].
    const auto hits = archive.query(scene, 400.0, 55.0, 65.0);
    bool found = false;
    for (const auto& e : hits) {
      if (e.vehicle == attacker) found = true;
    }
    snap_table.add_row({std::to_string(retention),
                        Table::num(static_cast<double>(retention) * 5.0, 0),
                        found ? "yes" : "NO",
                        std::to_string(archive.records_held())});
  }
  reporter.emit(snap_table);

  // ---- Part 2: flow analysis & padding --------------------------------------
  // Cluster heads coordinate (bigger, more frequent transmissions). The
  // adversary ranks talkers; padding adds uniform dummy traffic at the
  // given fraction of the coordinator volume.
  Table flow_table("flow-analysis role identification vs padding",
                   {"padding_level", "coordinator_recall",
                    "dummy_bytes_per_member"});
  core::ScenarioConfig cfg;
  cfg.vehicles = 60;
  cfg.seed = 32;
  core::Scenario scenario(cfg);
  scenario.start();
  cluster::MovingZone zones(scenario.network());
  zones.attach();
  scenario.run_for(10.0);
  zones.update();

  // Coordinators = heads that actually coordinate someone (>= 2 members);
  // singleton "heads" have nobody to talk to and traffic like members.
  std::set<std::uint64_t> coordinating;
  for (const auto& [head, members] : zones.clusters()) {
    if (members.size() >= 2) coordinating.insert(head.value());
  }
  for (const double padding : {0.0, 0.25, 0.5, 1.0}) {
    attack::FlowAnalyzer analyzer;
    std::vector<VehicleId> heads;
    Rng rng(7);
    // 60 s of observed traffic: heads send ~2 KB/s of coordination, members
    // ~0.2 KB/s of reports, everyone pads with dummy bytes.
    for (int second = 0; second < 60; ++second) {
      for (const auto& [vid, v] : scenario.traffic().vehicles()) {
        const bool is_head = coordinating.count(vid) != 0;
        const double base = is_head ? 2048.0 : 204.8;
        const double padded =
            base + padding * (2048.0 - base);
        analyzer.observe(v.id,
                         static_cast<std::size_t>(
                             padded * rng.uniform(0.8, 1.2)));
      }
    }
    for (const auto& [head, members] : zones.clusters()) {
      if (members.size() >= 2) heads.push_back(head);
    }
    const double recall = analyzer.role_identification_recall(heads);
    const double dummy_kb = padding * (2048.0 - 204.8) * 60.0 / 1024.0;
    flow_table.add_row({Table::num(padding, 2), Table::num(recall, 2),
                        Table::num(dummy_kb, 0) + " KB/min"});
  }
  reporter.emit(flow_table);

  std::cout
      << "Shape vs §V.A: forensics needs the snapshot window to still cover\n"
         "the incident when the investigation opens — and every extra\n"
         "snapshot retained is another tranche of location records at\n"
         "risk. Flow analysis unmasks coordinators from volume alone;\n"
         "full padding hides them at ~100 KB/min of dummy traffic per\n"
         "member — §III's traffic-analysis threat and its classic, costly\n"
         "defense.\n";
  return reporter.finish();
}
