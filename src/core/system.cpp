#include "core/system.h"

#include <stdexcept>

namespace vcl::core {
namespace {

constexpr SimTime kSamplePeriod = 1.0;   // telemetry metric sampling

}  // namespace

const char* to_string(CloudArchitecture a) {
  switch (a) {
    case CloudArchitecture::kStationary: return "stationary";
    case CloudArchitecture::kInfrastructureBased: return "infrastructure";
    case CloudArchitecture::kDynamic: return "dynamic";
  }
  return "unknown";
}

std::unique_ptr<vcloud::Scheduler> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kRandom:
      return std::make_unique<vcloud::RandomScheduler>();
    case SchedulerKind::kGreedy:
      return std::make_unique<vcloud::GreedyResourceScheduler>();
    case SchedulerKind::kDwellAware:
      return std::make_unique<vcloud::DwellAwareScheduler>();
  }
  return std::make_unique<vcloud::RandomScheduler>();
}

VehicularCloudSystem::VehicularCloudSystem(SystemConfig config)
    : config_(std::move(config)),
      scenario_(config_.scenario),
      zones_(scenario_.network()),
      ta_(config_.scenario.seed ^ 0x5441) {}

void VehicularCloudSystem::start() {
  if (started_) return;
  started_ = true;
  scenario_.start();
  scenario_.network().refresh();
  zones_.attach();
  zones_.update();

  // Register the initial population with the TA.
  for (const auto& [vid, v] : scenario_.traffic().vehicles()) {
    ta_.register_vehicle(v.id);
  }

  auto& net = scenario_.network();
  vcloud::VehicularCloud::MembershipFn membership;
  vcloud::VehicularCloud::RegionFn region;
  const auto [lo, hi] = scenario_.road().bounding_box();
  const geo::Vec2 center{(lo.x + hi.x) / 2, (lo.y + hi.y) / 2};

  switch (config_.architecture) {
    case CloudArchitecture::kStationary:
      membership = vcloud::stationary_membership(scenario_.traffic(), center,
                                                 config_.stationary_radius);
      region = vcloud::fixed_region(center, config_.stationary_radius);
      break;
    case CloudArchitecture::kInfrastructureBased: {
      // Anchor to the RSU nearest the map center (deploy one if none).
      if (net.rsus().count() == 0) {
        net.rsus().add(center, config_.scenario.rsu_range);
      }
      RsuId best{0};
      double best_d = 1e300;
      for (const auto& r : net.rsus().all()) {
        const double d = geo::distance(r.pos, center);
        if (d < best_d) {
          best_d = d;
          best = r.id;
        }
      }
      membership = vcloud::rsu_membership(net, best);
      region = vcloud::rsu_region(net, best);
      break;
    }
    case CloudArchitecture::kDynamic: {
      membership = vcloud::largest_cluster_membership(zones_);
      region = vcloud::largest_cluster_region(scenario_.traffic(), zones_,
                                              net::Channel::kMaxRange);
      break;
    }
  }

  cloud_ = std::make_unique<vcloud::VehicularCloud>(
      CloudId{1}, net, std::move(membership), std::move(region),
      make_scheduler(config_.scheduler), config_.cloud,
      scenario_.fork_rng(7));
  // The flight recorder is always on (DESIGN.md §12): unlike telemetry it
  // is wired unconditionally — fixed memory, no RNG, no scheduling impact,
  // so the run stays bit-identical while the black box fills.
  cloud_->set_flight(&flight_);
  if (config_.invariant_oracle) {
    // Attach before the initial refresh so the very first end-of-round scan
    // is already checked.
    oracle_ = std::make_unique<vcloud::InvariantOracle>(config_.scenario.seed);
    cloud_->set_oracle(oracle_.get());
  }
  // Adversarial admission before the initial refresh: the control is
  // RNG-free and inert until an attack event fires, but the eviction sweep
  // and arrival gate must cover every refresh from the first.
  if (config_.adversary) {
    admission_ = std::make_unique<vcloud::AdmissionControl>(config_.admission);
    admission_->set_flight(&flight_);
    cloud_->set_admission(admission_.get());
    // The auth invariants only arm on a defended run: with the door
    // deliberately open (the E24 vulnerable baseline) membership pollution
    // is the expected outcome, not a safety violation.
    if (oracle_ != nullptr && config_.admission.defend) {
      oracle_->set_admission(admission_.get());
    }
  }
  cloud_->attach();
  cloud_->refresh();

  // Fault injection: the plan is drawn from its own forked stream so the
  // fault schedule is a pure function of (config, seed) and never perturbs
  // mobility/channel/cloud randomness.
  fault::FaultPlanConfig faults = config_.faults;
  if (faults.blackout_lo.x == 0.0 && faults.blackout_lo.y == 0.0 &&
      faults.blackout_hi.x == 0.0 && faults.blackout_hi.y == 0.0) {
    faults.blackout_lo = lo;
    faults.blackout_hi = hi;
  }
  Rng plan_rng = scenario_.fork_rng(13);
  // An explicit plan (chaos storms, or a shrunk repro replayed from a file)
  // wins over generation; the fork above still happens so the other streams
  // are identical either way.
  fault::FaultPlan plan = config_.fault_plan.empty()
                              ? fault::make_fault_plan(faults, plan_rng)
                              : config_.fault_plan;
  if (!plan.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(
        net, *cloud_, std::move(plan), scenario_.fork_rng(14));
    injector_->set_flight(&flight_);
    injector_->attach();
  }

  // Adversary driver after the injector: it is the injector's attack-event
  // resolver, landing planned kSybilJoin / kRevokeIdentity / kCrlDeliver /
  // kReplayInject events on concrete victims. RNG-free — victim choice is
  // a pure function of the planned event and sorted membership.
  if (config_.adversary && injector_ != nullptr) {
    adversary_ = std::make_unique<AdversaryDriver>(*cloud_, *admission_, ta_);
    injector_->set_attack_handler(
        [this](const fault::FaultEvent& e) { adversary_->handle(e); });
  }

  // Storage after faults: the injector exists, so storage-targeted storms
  // can resolve their victims against live placements. The service's RNG is
  // its own fork — enabling storage never reshuffles the other streams.
  if (config_.storage.enabled) {
    storage_ = std::make_unique<storage::StorageService>(
        net, *cloud_, scenario_.fork_rng(21));
    storage_->set_flight(&flight_);
    storage_->attach();
    if (oracle_ != nullptr) {
      oracle_->set_storage(storage_.get());
      storage_->set_oracle(oracle_.get());
    }
    if (injector_ != nullptr) {
      injector_->set_storage_victim_resolver(
          [this](std::uint64_t tag) { return storage_->storm_victim(tag); });
    }
  }

  // DAG decomposition scheduling after storage: it claims the cloud's
  // terminal hook and registers as a chaos storm target, both of which need
  // the cloud and injector already built. Its RNG is its own fork —
  // enabling the DAG layer never reshuffles the other streams.
  if (config_.dag.enabled) {
    if (const std::string problem =
            dag::validate(config_.dag, config_.scenario.vehicles);
        !problem.empty()) {
      throw std::invalid_argument("DagConfig: " + problem);
    }
    dag_ = std::make_unique<dag::DagScheduler>(net, *cloud_, config_.dag,
                                               scenario_.fork_rng(23));
    dag_->set_flight(&flight_);
    dag_->attach();
    if (oracle_ != nullptr) {
      oracle_->set_dag(dag_.get());
      dag_->set_oracle(oracle_.get());
    }
    if (injector_ != nullptr) {
      injector_->set_dag_victim_resolver(
          [this](std::uint64_t tag) { return dag_->storm_victim(tag); });
    }
  }

  // Telemetry last: every subsystem exists, so the recorder and the gauges
  // can be threaded through in one place. Telemetry reads state and emits
  // events but never perturbs RNG streams or scheduling of the workload
  // itself (the sampler adds kernel events, which is why it is opt-in).
  if (config_.telemetry.any()) {
    telemetry_ = std::make_unique<obs::Telemetry>(config_.telemetry);
    if (config_.telemetry.tracing) {
      net.set_trace(&telemetry_->trace);
      cloud_->set_trace(&telemetry_->trace);
      if (injector_ != nullptr) injector_->set_trace(&telemetry_->trace);
      if (storage_ != nullptr) storage_->set_trace(&telemetry_->trace);
      if (dag_ != nullptr) dag_->set_trace(&telemetry_->trace);
      telemetry_->trace.record(scenario_.simulator().now(),
                               obs::TraceCategory::kSim, "sim.start",
                               {{"vehicles",
                                 static_cast<double>(config_.scenario.vehicles)}});
    }
    if (config_.telemetry.metrics) {
      net.register_metrics(telemetry_->metrics);
      cloud_->register_metrics(telemetry_->metrics);
      if (injector_ != nullptr) {
        injector_->register_metrics(telemetry_->metrics);
      }
      if (storage_ != nullptr) {
        storage_->register_metrics(telemetry_->metrics);
      }
      telemetry_->metrics.gauge("sim.event.count", [this] {
        return static_cast<double>(scenario_.simulator().events_processed());
      });
      telemetry_->metrics.gauge("sim.queue.high_water", [this] {
        return static_cast<double>(scenario_.simulator().queue_high_water());
      });
      telemetry_->metrics.start_sampling(scenario_.simulator(), kSamplePeriod);
    }
    if (config_.telemetry.profile_kernel) {
      scenario_.simulator().enable_profiling(true);
    }
  }
}

void VehicularCloudSystem::run_for(SimTime seconds) {
  start();
  scenario_.run_for(seconds);
}

std::vector<TaskId> VehicularCloudSystem::submit_workload(
    const vcloud::WorkloadConfig& workload, std::size_t n) {
  start();
  vcloud::WorkloadGenerator gen(workload, scenario_.fork_rng(8));
  std::vector<TaskId> ids;
  ids.reserve(n);
  for (vcloud::Task& t : gen.batch(scenario_.simulator().now(), n)) {
    ids.push_back(cloud_->submit(std::move(t)));
  }
  return ids;
}

}  // namespace vcl::core
