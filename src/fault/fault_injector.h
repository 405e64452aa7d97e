// FaultInjector: applies a FaultPlan to a live simulation (paper §III).
//
// The injector is the adversary the dependability machinery in
// vcloud/dependability.h defends against. It schedules every FaultEvent on
// the sim clock at attach() time; each fires exactly once:
//
//  * kVehicleCrash — picks a victim (a random busy-or-idle worker of the
//    cloud, falling back to any live vehicle), tells the cloud
//    crash_worker() (zombie bookkeeping: the cloud is NOT notified of the
//    loss) and despawns the vehicle from traffic.
//  * kBrokerCrash — same, but the victim is the cloud's current broker: the
//    worst-case single failure (§III.A — broker state IS cloud state).
//  * kRsuOutage — takes an RSU offline and schedules its repair.
//  * kRadioBlackout — installs a Channel blackout region for a window;
//    every transmission with an endpoint inside it is lost (heartbeats
//    included — this is what makes failure detection false-positive).
//
// Victim choice consumes the injector's OWN forked RNG, so the fault
// sequence never perturbs the scenario's other stochastic streams.
#pragma once

#include <functional>
#include <vector>

#include "fault/fault_plan.h"
#include "net/network.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vcloud/cloud.h"

namespace vcl::fault {

struct FaultStats {
  std::size_t vehicle_crashes = 0;
  std::size_t broker_crashes = 0;
  std::size_t rsu_outages = 0;
  std::size_t rsu_repairs = 0;
  std::size_t blackouts = 0;
  // Attack events routed to the adversary driver (0 when none is wired).
  std::size_t sybil_joins = 0;
  std::size_t revocations = 0;
  std::size_t crl_deliveries = 0;
  std::size_t replays = 0;
};

// One installed radio-blackout window in absolute sim time. The injector
// keeps every window it opened (they are few), so incident capture can
// list the storms that were active — or recently active — at a violation
// without re-pairing start/end events.
struct BlackoutWindow {
  SimTime start = 0.0;
  SimTime end = 0.0;
  geo::Vec2 center{};
  double radius = 0.0;
};

class FaultInjector {
 public:
  // `cloud`'s workers are the crash candidates, and it is told about every
  // crash so its zombie bookkeeping starts at the right instant.
  FaultInjector(net::Network& net, vcloud::VehicularCloud& cloud,
                FaultPlan plan, Rng rng)
      : net_(net), cloud_(cloud), plan_(std::move(plan)), rng_(rng) {}

  // Resolves a FaultEvent::storage_tag into a concrete victim when a
  // storage-targeted crash fires (installed by the system wiring when the
  // storage service is enabled). May return an invalid id — the injector
  // then falls back to its ordinary victim pool.
  using StorageVictimResolver = std::function<VehicleId(std::uint64_t)>;
  void set_storage_victim_resolver(StorageVictimResolver resolver) {
    storage_resolver_ = std::move(resolver);
  }

  // Resolves a FaultEvent::dag_tag into the worker currently holding a live
  // DAG run's critical-path node (installed by the system wiring when the
  // DAG scheduler is enabled). May return an invalid id — the injector then
  // falls back to its ordinary victim pool.
  using DagVictimResolver = std::function<VehicleId(std::uint64_t)>;
  void set_dag_victim_resolver(DagVictimResolver resolver) {
    dag_resolver_ = std::move(resolver);
  }

  // Routes adversarial events (kSybilJoin / kRevokeIdentity / kCrlDeliver /
  // kReplayInject) to the adversary driver the system wiring installs when
  // adversarial chaos is enabled. Unset = attack events are inert, so a
  // benign run replaying a plan that happens to carry them is unchanged.
  using AttackHandler = std::function<void(const FaultEvent&)>;
  void set_attack_handler(AttackHandler handler) {
    attack_handler_ = std::move(handler);
  }

  // Schedules every planned event. Call once, before (or at) t=0 of the run.
  void attach();

  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  // Every blackout window fired so far, in fire order.
  [[nodiscard]] const std::vector<BlackoutWindow>& blackout_windows() const {
    return blackout_windows_;
  }

  // Always-on forensics (DESIGN.md §12): every fired fault also lands in
  // the flight recorder — injected faults are the "cause" half of the
  // causal timeline an incident bundle reconstructs. Null = one branch.
  void set_flight(obs::FlightRecorder* flight) { flight_ = flight; }

  // Telemetry (off by default): every fired fault becomes a fault.* trace
  // event — the ground truth a trace analysis correlates detection latency
  // and completion dips against.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }
  void register_metrics(obs::MetricsRegistry& metrics) const;

 private:
  void fire(const FaultEvent& e);
  void crash_vehicle(VehicleId v);
  // Random live worker of the cloud (sorted pool, injector RNG); falls back
  // to any live vehicle. Invalid when nothing is alive.
  [[nodiscard]] VehicleId pick_crash_victim();

  net::Network& net_;
  vcloud::VehicularCloud& cloud_;
  FaultPlan plan_;
  Rng rng_;
  StorageVictimResolver storage_resolver_;
  DagVictimResolver dag_resolver_;
  AttackHandler attack_handler_;
  FaultStats stats_;
  std::vector<BlackoutWindow> blackout_windows_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
};

}  // namespace vcl::fault
