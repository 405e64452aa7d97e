// E21 — Verifiable computation via redundant execution (PTVC, Huang et
// al. [10]) and SCRA precomputed real-time signing (Yavuz et al. [44]).
//
// Part 1: replication factor x cheater fraction → accepted / rejected /
// UNDETECTED-wrong jobs, plus the work overhead replication costs.
// Part 2: SCRA online signing latency vs plain signing, and how long a
// precomputed table lasts at safety-beacon rates.
#include <iostream>

#include "auth/scra.h"
#include "obs/bench_output.h"
#include "util/table.h"
#include "vcloud/verifiable.h"

using namespace vcl;

namespace {

struct VerifRow {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t undetected = 0;
  double work_overhead = 0;
};

VerifRow run(std::size_t replicas, double cheater_fraction,
             std::uint64_t seed) {
  const auto road = geo::make_manhattan_grid(2, 2, 200.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(road, Rng(seed));
  net::Network net(sim, traffic, Rng(seed + 1));
  std::vector<VehicleId> workers;
  for (int i = 0; i < 10; ++i) {
    workers.push_back(traffic.spawn_parked(LinkId{0}, 12.0 * i));
  }
  net.refresh();
  vcloud::VehicularCloud cloud(
      CloudId{1}, net, vcloud::stationary_membership(traffic, {60, 0}, 500.0),
      vcloud::fixed_region({60, 0}, 500.0),
      std::make_unique<vcloud::RandomScheduler>(), vcloud::CloudConfig{},
      Rng(seed + 2));
  cloud.refresh();
  sim.schedule_every(1.0, [&] { cloud.refresh(); });

  attack::AdversaryRoster cheaters;
  Rng pick(seed + 3);
  pick.shuffle(workers);
  const auto n_cheat = static_cast<std::size_t>(
      cheater_fraction * static_cast<double>(workers.size()) + 0.5);
  for (std::size_t i = 0; i < n_cheat; ++i) cheaters.add(workers[i]);

  vcloud::ReplicatedSubmitter submitter(cloud, cheaters, replicas);
  submitter.attach(sim);
  for (int i = 0; i < 40; ++i) {
    vcloud::Task t;
    t.work = 2.0;
    submitter.submit(std::move(t));
  }
  sim.run_until(1200.0);

  VerifRow row;
  row.accepted = submitter.accepted_jobs();
  row.rejected = submitter.rejected_jobs();
  row.undetected = submitter.undetected_errors();
  row.work_overhead = static_cast<double>(replicas);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_verifiable", argc, argv);

  std::cout << "E21: verifiable computing & real-time signing\n\n";

  Table table("PTVC-style redundant execution (40 jobs, 10 workers)",
              {"replicas", "cheater_frac", "accepted", "rejected",
               "UNDETECTED_wrong", "work_x"});
  for (const std::size_t replicas : {1UL, 2UL, 3UL}) {
    for (const double frac : {0.1, 0.3, 0.5}) {
      const VerifRow r = run(replicas, frac, 99);
      table.add_row({std::to_string(replicas), Table::num(frac, 1),
                     std::to_string(r.accepted), std::to_string(r.rejected),
                     std::to_string(r.undetected),
                     Table::num(r.work_overhead, 0)});
    }
  }
  reporter.emit(table);

  // ---- SCRA ---------------------------------------------------------------
  Table scra_table("SCRA: online signing vs plain signing (OBU-class costs)",
                   {"scheme", "online_ms_per_msg", "offline_ms_per_msg",
                    "table_for_60s@10Hz"});
  {
    // Plain: every message pays a full signature.
    crypto::OpCounts plain;
    plain.sign = 1;
    scra_table.add_row({"plain schnorr",
                        Table::num(crypto::total(plain) / kMilliseconds, 2),
                        "0.00", "-"});
    // SCRA: online = 1 hash; offline = 1 sign amortized per message.
    crypto::OpCounts online;
    online.hash = 1;
    crypto::OpCounts offline;
    offline.sign = 1;
    scra_table.add_row({"scra (precomputed)",
                        Table::num(crypto::total(online) / kMilliseconds, 3),
                        Table::num(crypto::total(offline) / kMilliseconds, 2),
                        std::to_string(60 * 10) + " entries"});
  }
  reporter.emit(scra_table);

  // Functional spot check so the table is backed by a real implementation.
  {
    crypto::Drbg drbg(std::uint64_t{5});
    const auto& group = crypto::default_group();
    auth::ScraSigner signer(group, drbg.next_scalar(group.q()), 6);
    crypto::OpCounts ops;
    signer.precompute(600, ops);
    const crypto::Schnorr schnorr(group);
    std::size_t verified = 0;
    for (int i = 0; i < 600; ++i) {
      const crypto::Bytes msg{static_cast<std::uint8_t>(i & 0xff)};
      const auto sig = signer.sign(msg, ops);
      verified += schnorr.verify(signer.pub(), msg, *sig) ? 1 : 0;
    }
    std::cout << "SCRA functional check: " << verified
              << "/600 precomputed signatures verified by standard "
                 "Schnorr\n\n";
  }

  std::cout
      << "Shape vs the surveyed papers: one replica accepts every cheater\n"
         "result (unverified baseline); two replicas detect disagreement\n"
         "and reject; three replicas restore acceptance by outvoting lone\n"
         "cheaters — undetected errors only reappear when cheaters\n"
         "dominate a quorum. SCRA moves the 1.2 ms signature offline,\n"
         "leaving ~5 us of online work per safety message: a 60 s burst at\n"
         "10 Hz costs one 600-entry table computed during idle time.\n";
  return reporter.finish();
}
