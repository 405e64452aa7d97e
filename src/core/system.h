// VehicularCloudSystem: the library's top-level facade.
//
// Wires a Scenario with clustering, one of the three Fig. 4 cloud
// architectures, a scheduler, authentication and (optionally) attack
// machinery into a running system with a small task-submission API. The
// examples and several benches are written entirely against this class.
#pragma once

#include <memory>

#include "auth/authority.h"
#include "cluster/moving_zone.h"
#include "core/adversary.h"
#include "core/scenario.h"
#include "dag/scheduler.h"
#include "fault/fault_injector.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "storage/service.h"
#include "vcloud/admission.h"
#include "vcloud/cloud.h"
#include "vcloud/invariant_oracle.h"

namespace vcl::core {

enum class CloudArchitecture : std::uint8_t {
  kStationary,
  kInfrastructureBased,
  kDynamic,
};

const char* to_string(CloudArchitecture a);

enum class SchedulerKind : std::uint8_t { kRandom, kGreedy, kDwellAware };

std::unique_ptr<vcloud::Scheduler> make_scheduler(SchedulerKind kind);

struct SystemConfig {
  ScenarioConfig scenario;
  CloudArchitecture architecture = CloudArchitecture::kDynamic;
  SchedulerKind scheduler = SchedulerKind::kDwellAware;
  vcloud::CloudConfig cloud;
  // Stationary clouds anchor here (defaults to the road bounding-box
  // center).
  double stationary_radius = 400.0;
  // Fault injection (paper §III): all rates default to 0 = no faults. The
  // blackout box is filled from the road bounding box unless set explicitly.
  fault::FaultPlanConfig faults;
  // A non-empty explicit plan (chaos storms, a shrunk repro loaded from a
  // file) bypasses `faults` generation entirely and is injected as-is.
  fault::FaultPlan fault_plan;
  // Runtime safety checking (DESIGN.md §9): attach a vcloud::InvariantOracle
  // to the cloud. Off by default — a disabled run pays one branch per hook
  // and stays bit-identical to the seed (same contract as telemetry).
  bool invariant_oracle = false;
  // Dependable object storage over the cloud's members (DESIGN.md §10):
  // leases, quorum replication, self-healing repair. Off by default — when
  // storage.enabled is false no service is built, no hooks are installed and
  // the run is bit-identical to the seed.
  storage::StorageConfig storage;
  // DAG task-graph workloads (DESIGN.md §11): decomposition scheduling of
  // dependency graphs over the broker, with blind-k or reliability-aware
  // replication. Off by default — when dag.enabled is false no scheduler is
  // built, no hooks are installed and the run is bit-identical to the seed.
  dag::DagConfig dag;
  // Adversarial chaos (paper §IV, DESIGN.md §13): revocation-aware
  // admission/eviction on the broker path, the replay freshness gate and
  // sybil quarantine, plus the AdversaryDriver that lands planned attack
  // events (kSybilJoin / kRevokeIdentity / kCrlDeliver / kReplayInject) on
  // concrete victims. Off by default — when adversary is false no
  // admission control or driver is built, every hook is one branch, and the
  // run is bit-identical to the seed. The storm schedule itself is a fault
  // plan (fault::StormConfig), not part of this config.
  bool adversary = false;
  // The admission policy (defense switch, freshness window) the adversary
  // path builds its AdmissionControl from.
  vcloud::AdmissionConfig admission;
  // Observability (DESIGN.md §6): tracing, metric sampling and kernel
  // profiling, all off by default — a disabled run pays one branch per
  // would-be event and stays bit-identical to the seed.
  obs::TelemetryConfig telemetry;
};

class VehicularCloudSystem {
 public:
  explicit VehicularCloudSystem(SystemConfig config);

  // Builds the world and the cloud; must be called before cloud() is used.
  void start();
  void run_for(SimTime seconds);

  // Generates and submits `n` tasks from the workload config.
  std::vector<TaskId> submit_workload(const vcloud::WorkloadConfig& workload,
                                      std::size_t n);

  [[nodiscard]] Scenario& scenario() { return scenario_; }
  [[nodiscard]] vcloud::VehicularCloud& cloud() { return *cloud_; }
  [[nodiscard]] cluster::MovingZone& clusters() { return zones_; }
  [[nodiscard]] auth::TrustedAuthority& authority() { return ta_; }
  // Present only when the fault config has a non-empty plan.
  [[nodiscard]] fault::FaultInjector* injector() { return injector_.get(); }
  // Present only when any telemetry piece is enabled in the config.
  [[nodiscard]] obs::Telemetry* telemetry() { return telemetry_.get(); }
  // Present only when config.invariant_oracle is set.
  [[nodiscard]] vcloud::InvariantOracle* oracle() { return oracle_.get(); }
  // Present only when config.storage.enabled is set.
  [[nodiscard]] storage::StorageService* storage() { return storage_.get(); }
  // Present only when config.dag.enabled is set.
  [[nodiscard]] dag::DagScheduler* dag() { return dag_.get(); }
  // Present only when config.adversary is set.
  [[nodiscard]] vcloud::AdmissionControl* admission() {
    return admission_.get();
  }
  // Present only when config.adversary is set AND a fault plan
  // exists (the driver resolves planned attack events; without an injector
  // there is nothing to resolve).
  [[nodiscard]] AdversaryDriver* adversary() { return adversary_.get(); }
  // ALWAYS present (DESIGN.md §12): the fixed-memory forensic flight
  // recorder is wired into every subsystem at start(), telemetry on or
  // off. RNG-neutral and allocation-free after construction, so runs are
  // bit-identical with or without anyone reading it.
  [[nodiscard]] obs::FlightRecorder& flight() { return flight_; }
  [[nodiscard]] const obs::FlightRecorder& flight() const { return flight_; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }

 private:
  SystemConfig config_;
  Scenario scenario_;
  obs::FlightRecorder flight_;
  cluster::MovingZone zones_;
  auth::TrustedAuthority ta_;
  std::unique_ptr<vcloud::VehicularCloud> cloud_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<vcloud::InvariantOracle> oracle_;
  std::unique_ptr<storage::StorageService> storage_;
  std::unique_ptr<dag::DagScheduler> dag_;
  std::unique_ptr<vcloud::AdmissionControl> admission_;
  std::unique_ptr<AdversaryDriver> adversary_;
  bool started_ = false;
};

}  // namespace vcl::core
