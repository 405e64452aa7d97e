#include "fault/fault_injector.h"

#include <algorithm>

namespace vcl::fault {

void FaultInjector::attach() {
  sim::Simulator& sim = net_.simulator();
  for (const FaultEvent& e : plan_) {
    const SimTime delay = std::max(0.0, e.at - sim.now());
    sim.schedule_after(delay, [this, e] { fire(e); }, "fault.event");
  }
}

VehicleId FaultInjector::pick_crash_victim() {
  // Pool = live workers of the cloud, sorted so the draw is deterministic.
  std::vector<VehicleId> pool;
  for (const VehicleId v : cloud_.worker_ids()) {
    if (cloud_.worker_crashed(v)) continue;  // already dead
    if (net_.traffic().find(v) == nullptr) continue;
    pool.push_back(v);
  }
  std::sort(pool.begin(), pool.end());
  if (pool.empty()) {
    // No cloud workers: any live vehicle will do (still a fault, just not
    // one the cloud feels directly).
    for (const auto& [vid, v] : net_.traffic().vehicles()) {
      pool.push_back(v.id);
    }
    std::sort(pool.begin(), pool.end());
  }
  if (pool.empty()) return VehicleId{};
  return pool[rng_.index(pool.size())];
}

void FaultInjector::crash_vehicle(VehicleId v) {
  if (!v.valid() || net_.traffic().find(v) == nullptr) return;
  // Order matters: the cloud must snapshot in-flight progress while the
  // vehicle still exists; only then does it vanish from traffic.
  cloud_.crash_worker(v);
  net_.traffic().despawn(v);
}

void FaultInjector::fire(const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::kVehicleCrash: {
      VehicleId victim = e.vehicle;
      if (!victim.valid() && e.storage_tag != 0 && storage_resolver_) {
        victim = storage_resolver_(e.storage_tag);
      }
      if (!victim.valid() && e.dag_tag != 0 && dag_resolver_) {
        victim = dag_resolver_(e.dag_tag);
      }
      if (!victim.valid()) victim = pick_crash_victim();
      if (!victim.valid() || net_.traffic().find(victim) == nullptr) return;
      crash_vehicle(victim);
      ++stats_.vehicle_crashes;
      if (trace_ != nullptr) {
        trace_->record(net_.simulator().now(), obs::TraceCategory::kFault,
                       "fault.crash",
                       {{"vehicle", static_cast<double>(victim.value())}});
      }
      if (flight_ != nullptr) {
        flight_->record(net_.simulator().now(), obs::FlightCategory::kFault,
                        "fault.crash", victim.value());
      }
      return;
    }
    case FaultKind::kBrokerCrash: {
      const VehicleId broker = cloud_.broker();
      if (!broker.valid() || net_.traffic().find(broker) == nullptr) return;
      crash_vehicle(broker);
      ++stats_.broker_crashes;
      if (trace_ != nullptr) {
        trace_->record(net_.simulator().now(), obs::TraceCategory::kFault,
                       "fault.broker.crash",
                       {{"vehicle", static_cast<double>(broker.value())}});
      }
      if (flight_ != nullptr) {
        flight_->record(net_.simulator().now(), obs::FlightCategory::kFault,
                        "fault.broker.crash", broker.value());
      }
      return;
    }
    case FaultKind::kRsuOutage: {
      const std::size_t n = net_.rsus().count();
      if (n == 0) return;
      RsuId target = e.rsu;
      if (!target.valid()) {
        target = RsuId{rng_.index(n)};
      } else if (target.value() >= n) {
        // Wrap explicit ids into the deployed range instead of re-rolling:
        // chaos flap storms pick one abstract victim id and rely on every
        // cycle mapping to the SAME physical RSU.
        target = RsuId{target.value() % n};
      }
      const net::Rsu* rsu = net_.rsus().find(target);
      if (rsu == nullptr || !rsu->online) return;
      net_.rsus().set_online(target, false);
      ++stats_.rsu_outages;
      if (trace_ != nullptr) {
        trace_->record(net_.simulator().now(), obs::TraceCategory::kFault,
                       "fault.rsu.outage",
                       {{"rsu", static_cast<double>(target.value())},
                        {"repair_after", e.repair_after}});
      }
      if (flight_ != nullptr) {
        flight_->record(net_.simulator().now(), obs::FlightCategory::kFault,
                        "fault.rsu.outage", target.value(), 0,
                        e.repair_after);
      }
      if (e.repair_after > 0.0) {
        net_.simulator().schedule_after(
            e.repair_after,
            [this, target] {
              net_.rsus().set_online(target, true);
              ++stats_.rsu_repairs;
              if (trace_ != nullptr) {
                trace_->record(net_.simulator().now(),
                               obs::TraceCategory::kFault, "fault.rsu.repair",
                               {{"rsu", static_cast<double>(target.value())}});
              }
              if (flight_ != nullptr) {
                flight_->record(net_.simulator().now(),
                                obs::FlightCategory::kFault,
                                "fault.rsu.repair", target.value());
              }
            },
            "fault.event");
      }
      return;
    }
    case FaultKind::kRadioBlackout: {
      if (e.duration <= 0.0) return;
      const std::uint64_t token =
          net_.channel().add_blackout({e.center, e.radius});
      ++stats_.blackouts;
      const SimTime start = net_.simulator().now();
      blackout_windows_.push_back(
          {start, start + e.duration, e.center, e.radius});
      if (flight_ != nullptr) {
        flight_->record(start, obs::FlightCategory::kFault,
                        "fault.blackout.start", 0, 0, e.duration);
      }
      if (trace_ != nullptr) {
        trace_->record(net_.simulator().now(), obs::TraceCategory::kFault,
                       "fault.blackout.start",
                       {{"x", e.center.x},
                        {"y", e.center.y},
                        {"radius", e.radius},
                        {"duration", e.duration}});
        // Explicit storm-window annotation: [start, end] in absolute sim
        // time, so trace_analysis can split latency into in-storm vs
        // clear-sky without re-pairing start/end events across a possibly
        // wrapped ring.
        trace_->record(net_.simulator().now(), obs::TraceCategory::kFault,
                       "fault.window",
                       {{"start", net_.simulator().now()},
                        {"end", net_.simulator().now() + e.duration},
                        {"radius", e.radius}});
      }
      net_.simulator().schedule_after(
          e.duration,
          [this, token] {
            net_.channel().remove_blackout(token);
            if (trace_ != nullptr) {
              trace_->record(net_.simulator().now(),
                             obs::TraceCategory::kFault, "fault.blackout.end",
                             {{"token", static_cast<double>(token)}});
            }
            if (flight_ != nullptr) {
              flight_->record(net_.simulator().now(),
                              obs::FlightCategory::kFault,
                              "fault.blackout.end", token);
            }
          },
          "fault.event");
      return;
    }
    case FaultKind::kSybilJoin:
    case FaultKind::kRevokeIdentity:
    case FaultKind::kCrlDeliver:
    case FaultKind::kReplayInject: {
      // The injector logs the "cause" half (a fault.* flight event, same as
      // every other injection); the driver behind the handler logs the
      // admission/eviction "decision" half on the auth/attack categories.
      if (!attack_handler_) return;
      const char* name = "";
      switch (e.kind) {
        case FaultKind::kSybilJoin:
          ++stats_.sybil_joins;
          name = "fault.sybil.join";
          break;
        case FaultKind::kRevokeIdentity:
          ++stats_.revocations;
          name = "fault.revoke";
          break;
        case FaultKind::kCrlDeliver:
          ++stats_.crl_deliveries;
          name = "fault.crl.deliver";
          break;
        case FaultKind::kReplayInject:
          ++stats_.replays;
          name = "fault.replay.inject";
          break;
        default: break;
      }
      if (flight_ != nullptr) {
        flight_->record(net_.simulator().now(), obs::FlightCategory::kFault,
                        name, e.attack_tag, e.group);
      }
      if (trace_ != nullptr) {
        trace_->record(net_.simulator().now(), obs::TraceCategory::kFault,
                       name,
                       {{"attack_tag", static_cast<double>(e.attack_tag)},
                        {"group", static_cast<double>(e.group)}});
      }
      attack_handler_(e);
      return;
    }
  }
}

void FaultInjector::register_metrics(obs::MetricsRegistry& metrics) const {
  metrics.gauge("fault.vehicle.crashed", [this] {
    return static_cast<double>(stats_.vehicle_crashes);
  });
  metrics.gauge("fault.broker.crashed", [this] {
    return static_cast<double>(stats_.broker_crashes);
  });
  metrics.gauge("fault.rsu.down", [this] {
    return static_cast<double>(stats_.rsu_outages - stats_.rsu_repairs);
  });
  metrics.gauge("fault.blackout.active", [this] {
    return static_cast<double>(net_.channel().blackout_count());
  });
}

}  // namespace vcl::fault
