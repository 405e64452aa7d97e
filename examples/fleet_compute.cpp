// Fleet compute: the full lifecycle — cold fleet boots into the system,
// forms a dynamic cloud, and runs a split-run-combine aggregation job.
//
//   1. Vehicles join via the bootstrap protocol (RSU or neighbor relay),
//      obtaining pseudonym pools and DH session keys (§V.A initialization).
//   2. A dynamic v-cloud forms over the moving-zone clusters.
//   3. A map-style job (e.g. "build the HD-map diff for this district")
//      splits into 12 parts; the broker aggregates results into a
//      Merkle-rooted combined output the submitter can verify.
#include <iostream>

#include "core/bootstrap.h"
#include "core/system.h"
#include "util/table.h"
#include "vcloud/aggregate.h"

int main() {
  using namespace vcl;

  core::SystemConfig cfg;
  cfg.scenario.vehicles = 70;
  cfg.scenario.seed = 3;
  cfg.scenario.rsu_spacing = 800.0;  // sparse infrastructure
  cfg.architecture = core::CloudArchitecture::kDynamic;
  core::VehicularCloudSystem system(cfg);
  system.start();

  // Phase 1: bootstrap.
  core::BootstrapProtocol bootstrap(system.scenario().network(),
                                    system.authority());
  bootstrap.attach();
  system.run_for(30.0);
  std::cout << "after 30 s: " << bootstrap.joined_count() << "/"
            << system.scenario().traffic().vehicle_count()
            << " vehicles joined (" << bootstrap.via_rsu_count()
            << " via RSU, " << bootstrap.via_relay_count()
            << " relayed), mean join latency "
            << Table::num(bootstrap.join_latency().mean(), 2) << " s\n";

  // Phase 2: the dynamic cloud is already live; show what it pooled.
  const auto pool = system.cloud().pool();
  std::cout << "dynamic cloud: " << pool.members << " members pooling "
            << Table::num(pool.compute, 1) << " work-units/s\n\n";

  // Phase 3: aggregation job.
  vcloud::Aggregator aggregator(system.cloud());
  aggregator.attach(system.scenario().simulator());
  vcloud::AggregateJobSpec job_spec;
  job_spec.total_work = 120.0;
  job_spec.parts = 12;
  job_spec.deadline = system.scenario().simulator().now() + 240.0;
  const TaskId job = aggregator.submit(job_spec);
  std::cout << "submitted aggregate job (" << job_spec.parts << " parts, "
            << job_spec.total_work << " work units total)\n";

  system.run_for(240.0);

  const auto* status = aggregator.status(job);
  Table table("fleet compute job result", {"metric", "value"});
  table.add_row({"parts completed",
                 std::to_string(status->parts_completed) + "/" +
                     std::to_string(status->parts_total)});
  table.add_row({"job state", status->completed ? "COMPLETED"
                              : status->failed  ? "FAILED"
                                                : "in progress"});
  if (status->completed) {
    table.add_row({"completed at (s)", Table::num(status->completed_at, 1)});
    table.add_row({"result Merkle root",
                   crypto::to_hex(status->result_root).substr(0, 16) + "…"});
  }
  table.add_row({"task migrations (handover)",
                 std::to_string(system.cloud().stats().migrations)});
  table.print(std::cout);

  std::cout << "The Merkle root lets the submitter verify each part's\n"
               "contribution to the combined result — result aggregation\n"
               "with integrity, per paper §III.A.\n";
  return status->completed ? 0 : 1;
}
