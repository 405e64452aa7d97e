// Host-time benchmark runner for the vcl simulator and cloud control plane.
//
// Drives one named workload through the library's public API only
// (core::VehicularCloudSystem, VehicularCloud::submit, StorageService
// put/get, DagScheduler::submit_graph). A run repeats the workload — a
// fixed simulated horizon advanced in fixed simulated steps, each step
// timed — until a wall-clock budget is spent, then prints one JSON
// document with the raw per-repetition measurements on stdout.
// perfbench/run.py builds this binary, aggregates the repetitions, checks
// the correctness fingerprints and prints the metrics.
//
//   vcl_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--horizon SIMSECONDS]
//
// Load is open loop in simulated time: arrivals are kernel events on a
// fixed simulated schedule, and the process runs as fast as it can in wall
// time. All timings are host time (steady_clock). With --trace 1 untraced
// and traced repetitions alternate; a traced one enables the kernel
// profiler and times every public call the runner makes.
//
// Each repetition digests its simulated statistics into a fingerprint.
// Tracing must not change it, and a later commit that only speeds the code
// up must reproduce it exactly.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/system.h"
#include "crypto/sha256.h"
#include "dag/generator.h"
#include "obs/json.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VCL_PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define VCL_PERFBENCH_SANITIZED 1
#endif
#endif

#ifndef VCL_PERFBENCH_BUILD_TYPE
#define VCL_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace vcl;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Per-call wall times of the runner's public calls (traced runs only).
struct CallTimes {
  std::vector<double> submit_us;        // VehicularCloud::submit
  std::vector<double> batch_ms;         // VehicularCloudSystem::submit_workload
  std::vector<double> put_us;           // StorageService::put
  std::vector<double> get_us;           // StorageService::get
  std::vector<double> submit_graph_us;  // DagScheduler::submit_graph
};

// Runs `fn`, appending its wall time (times `scale`) to `out` when timing.
template <typename Fn>
auto timed(std::vector<double>* out, double scale, Fn&& fn) {
  if (out == nullptr) return fn();
  const auto t0 = Clock::now();
  auto result = fn();
  out->push_back(seconds_since(t0) * scale);
  return result;
}

// What the workload asked of the system during one repetition.
struct Load {
  std::size_t tasks = 0;  // tasks the runner submitted (single + batched)
  std::size_t puts = 0;
  std::size_t gets = 0;
  std::size_t graphs = 0;
};

// Installs a workload's arrival schedule on a started system. Arrivals are
// kernel events labelled "bench.*"; generators draw from streams forked off
// the workload seed, so the same seed gives the same inputs.
using Installer = void (*)(core::VehicularCloudSystem&, std::uint64_t seed,
                           Load&, CallTimes*);

struct Workload {
  const char* name;
  SimTime horizon;  // simulated seconds per repetition
  core::SystemConfig (*config)(std::uint64_t seed, SimTime horizon);
  Installer install;
};

// Simulated length of one timed step.
constexpr SimTime kStep = 1.0;

// The world — road map, fleet placement, trips, channel draws — is part of
// a workload's definition and always grows from this scenario seed. The
// workload seed generates the load offered to it: task streams, batch
// offsets, storage operations, task graphs and the fault plan. Worlds grown
// from different seeds differ in cloud size and churn enough to move host
// time by a third, which would swamp the load's own variation.
constexpr std::uint64_t kWorldSeed = 42;

// Runner-side streams fork the workload seed with salts the library never
// uses, so the runner's inputs are independent of the system's own draws.
constexpr std::uint64_t kTaskSalt = 0x7065726631;
constexpr std::uint64_t kStorageSalt = 0x7065726632;
constexpr std::uint64_t kDagSalt = 0x7065726633;
constexpr std::uint64_t kBatchSalt = 0x7065726634;
constexpr std::uint64_t kFaultSalt = 0x7065726635;

// A city grid holding the default scenario's density (100 vehicles on 6x6
// blocks of 200 m): `blocks` x `blocks` blocks.
core::ScenarioConfig city(int blocks, int vehicles) {
  core::ScenarioConfig s;
  s.environment = core::Environment::kCity;
  s.seed = kWorldSeed;
  s.grid_rows = blocks;
  s.grid_cols = blocks;
  s.grid_spacing = 200.0;
  s.vehicles = vehicles;
  return s;
}

// Submits one generated task through VehicularCloud::submit every `period`.
void install_task_stream(core::VehicularCloudSystem& system,
                         std::uint64_t seed, SimTime period, Load& load,
                         CallTimes* times) {
  auto gen = std::make_shared<vcloud::WorkloadGenerator>(
      vcloud::WorkloadConfig{20.0, 1.0, 0.2, 60.0}, Rng(seed).fork(kTaskSalt));
  sim::Simulator& sim = system.scenario().simulator();
  std::vector<double>* out = times ? &times->submit_us : nullptr;
  sim.schedule_every(
      period,
      [&system, &sim, &load, gen, out] {
        vcloud::Task task = gen->next(sim.now());
        timed(out, 1e6, [&] { return system.cloud().submit(std::move(task)); });
        ++load.tasks;
      },
      -1.0, "bench.task");
}

// --- dynamic_batch: the control-plane scaling path ---------------------------
// 400 moving vehicles on 12x12 blocks, dynamic cloud over the largest V2V
// cluster, dwell-aware scheduler; a batch of 10 tasks in every 4 s slot, at
// an offset into the slot drawn from the seed. One step in four holds a
// batch, so the step tail lands among batch steps.
constexpr SimTime kBatchPeriod = 4.0;
constexpr std::size_t kBatchSize = 10;

core::SystemConfig dynamic_batch_config(std::uint64_t, SimTime) {
  core::SystemConfig sys;
  sys.scenario = city(12, 400);
  sys.architecture = core::CloudArchitecture::kDynamic;
  sys.scheduler = core::SchedulerKind::kDwellAware;
  return sys;
}

void dynamic_batch_install(core::VehicularCloudSystem& system,
                           std::uint64_t seed, Load& load, CallTimes* times) {
  auto offsets = std::make_shared<Rng>(Rng(seed).fork(kBatchSalt));
  std::vector<double>* out = times ? &times->batch_ms : nullptr;
  sim::Simulator& sim = system.scenario().simulator();
  auto submit = [&system, &load, out] {
    const vcloud::WorkloadConfig batch{20.0, 1.0, 0.2, 60.0};
    const std::vector<TaskId> ids = timed(
        out, 1e3, [&] { return system.submit_workload(batch, kBatchSize); });
    load.tasks += ids.size();
  };
  sim.schedule_every(
      kBatchPeriod,
      [&sim, offsets, submit] {
        sim.schedule_after(offsets->uniform(0.0, kBatchPeriod - 1.0), submit,
                           "bench.batch");
      },
      0.0, "bench.batch");
}

// --- city_infra_large: the world model at scale ------------------------------
// 3200 moving vehicles on 34x34 blocks, RSUs every 600 m, an
// infrastructure cloud anchored on the central RSU; one task per second.
core::SystemConfig city_infra_large_config(std::uint64_t, SimTime) {
  core::SystemConfig sys;
  sys.scenario = city(34, 3200);
  sys.scenario.rsu_spacing = 600.0;
  sys.architecture = core::CloudArchitecture::kInfrastructureBased;
  sys.scheduler = core::SchedulerKind::kDwellAware;
  return sys;
}

void city_infra_large_install(core::VehicularCloudSystem& system,
                              std::uint64_t seed, Load& load,
                              CallTimes* times) {
  install_task_stream(system, seed, 1.0, load, times);
}

// --- lot_dependable_services: the per-task dependable path -------------------
// 100 parked vehicles, stationary cloud, the full dependability stack and
// the invariant oracle, quorum storage, reliability-aware DAGs and a
// Poisson fault plan.
constexpr std::size_t kStorageObjects = 16;
constexpr std::size_t kStorageClients = 4;
constexpr SimTime kStorageOpPeriod = 0.1;  // 10 ops/s
constexpr SimTime kGraphPeriod = 3.0;

core::SystemConfig lot_dependable_services_config(std::uint64_t seed,
                                                  SimTime horizon) {
  core::SystemConfig sys;
  sys.scenario.environment = core::Environment::kParkingLot;
  sys.scenario.seed = kWorldSeed;
  sys.scenario.vehicles = 100;
  sys.scenario.vehicles_parked = true;
  sys.scenario.rsu_spacing = 400.0;
  sys.architecture = core::CloudArchitecture::kStationary;
  sys.stationary_radius = 5000.0;

  vcloud::DependabilityConfig& dep = sys.cloud.dependability;
  dep.detector.enabled = true;
  dep.detector.missed_beats_to_kill = 6;
  dep.retry.enabled = true;
  dep.checkpoint.enabled = true;
  dep.checkpoint.period = 5.0;
  dep.speculation.enabled = true;
  dep.broker_resync_delay = 0.5;
  sys.invariant_oracle = true;

  sys.storage.enabled = true;  // N=3, W=2, R=2
  sys.dag.enabled = true;
  sys.dag.policy = dag::DagPolicy::kReliabilityAware;
  sys.dag.replicas = 2;
  sys.dag.graph_deadline = 30.0;

  // The fault plan is drawn from the workload seed and handed to the system
  // as an explicit plan; blackouts land anywhere on the lot.
  fault::FaultPlanConfig faults;
  faults.horizon = horizon;
  faults.vehicle_crash_rate = 0.02;
  faults.broker_crash_rate = 0.005;
  faults.rsu_outage_rate = 0.01;
  faults.rsu_repair_mean = 10.0;
  faults.blackout_rate = 0.01;
  faults.blackout_mean_duration = 5.0;
  faults.blackout_radius = 400.0;
  const core::Scenario probe(sys.scenario);
  std::tie(faults.blackout_lo, faults.blackout_hi) =
      probe.road().bounding_box();
  Rng rng = Rng(seed).fork(kFaultSalt);
  sys.fault_plan = fault::make_fault_plan(faults, rng);
  return sys;
}

void lot_dependable_services_install(core::VehicularCloudSystem& system,
                                     std::uint64_t seed, Load& load,
                                     CallTimes* times) {
  sim::Simulator& sim = system.scenario().simulator();
  install_task_stream(system, seed, 0.5, load, times);

  // Storage: one put per two gets over 16 objects, objects drawn at random.
  storage::StorageService& store = *system.storage();
  std::vector<FileId> objects;
  for (std::size_t i = 0; i < kStorageObjects; ++i) {
    objects.push_back(store.create(sim.now()));
  }
  auto pick = std::make_shared<Rng>(Rng(seed).fork(kStorageSalt));
  std::vector<double>* put_out = times ? &times->put_us : nullptr;
  std::vector<double>* get_out = times ? &times->get_us : nullptr;
  sim.schedule_every(
      kStorageOpPeriod,
      [&store, &sim, &load, objects, pick, put_out, get_out] {
        const std::size_t op = load.puts + load.gets;
        const FileId object = pick->pick(objects);
        const std::uint64_t client = op % kStorageClients;
        if (op % 3 == 0) {
          timed(put_out, 1e6, [&] { return store.put(client, object, sim.now()); });
          ++load.puts;
        } else {
          timed(get_out, 1e6, [&] { return store.get(client, object, sim.now()); });
          ++load.gets;
        }
      },
      -1.0, "bench.storage");

  // DAG: one light graph every 3 s, shapes cycling through the canon.
  dag::DagWorkloadConfig graphs;
  graphs.mean_node_work = 6.0;
  graphs.mean_transfer_mb = 0.5;
  graphs.mean_output_mb = 0.2;
  graphs.chain_length = 4;
  graphs.fanout = 4;
  graphs.layers = 3;
  graphs.layer_width = 2;
  auto gen = std::make_shared<dag::DagWorkloadGenerator>(
      graphs, Rng(seed).fork(kDagSalt));
  dag::DagScheduler& dsched = *system.dag();
  std::vector<double>* graph_out = times ? &times->submit_graph_us : nullptr;
  sim.schedule_every(
      kGraphPeriod,
      [&dsched, &sim, &load, gen, graph_out] {
        dag::TaskGraph graph = gen->next();
        timed(graph_out, 1e6,
              [&] { return dsched.submit_graph(std::move(graph), sim.now()); });
        ++load.graphs;
      },
      -1.0, "bench.dag");
}

// dynamic_batch runs 30 batches a repetition: the dispatch cost of a batch
// depends on the cloud state it lands on, and over ten seeds the quartile
// spread of sim_rate was ~9% with 15 batches against ~6% with 30.
const Workload kWorkloads[] = {
    {"dynamic_batch", 120.0, dynamic_batch_config, dynamic_batch_install},
    {"city_infra_large", 60.0, city_infra_large_config,
     city_infra_large_install},
    {"lot_dependable_services", 600.0, lot_dependable_services_config,
     lot_dependable_services_install},
};

// --- one repetition -----------------------------------------------------------

struct Rep {
  bool traced = false;
  double construct_s = 0.0;
  double start_s = 0.0;
  double install_s = 0.0;
  double run_s = 0.0;  // wall time of all steps
  std::vector<double> step_ms;
  double members_mean = 0.0;
  std::uint64_t events = 0;
  std::size_t queue_high_water = 0;
  std::vector<sim::ProfileEntry> profile;
  CallTimes times;
  Load load;
  std::string digest;
  std::vector<std::string> problems;  // self-consistency failures
  std::vector<std::pair<std::string, double>> stats;  // reported outcomes
};

// Canonical text of every simulated statistic; its SHA-256 is the run's
// fingerprint. Doubles print with all 17 significant digits.
class Digest {
 public:
  void add(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    text_ << key << '=' << buf << '\n';
  }
  void add(const char* key, std::uint64_t v) {
    text_ << key << '=' << v << '\n';
  }
  void add(const char* key, const Accumulator& a) {
    add(key, static_cast<std::uint64_t>(a.count()));
    add(key, a.sum());
    add(key, a.min());
    add(key, a.max());
  }
  void add(const char* key, const QuantileSketch& s) {
    add(key, s.count());
    if (s.count() == 0) return;
    add(key, s.quantile(0.5));
    add(key, s.quantile(0.99));
    add(key, s.max());
  }
  [[nodiscard]] std::string hex() const {
    return crypto::to_hex(crypto::Sha256::hash(text_.str())).substr(0, 16);
  }

 private:
  std::ostringstream text_;
};

// Digests the outcome, records the reported statistics and checks that the
// counters agree with what the runner submitted.
void finish(core::VehicularCloudSystem& system, Rep& rep) {
  Digest d;
  auto stat = [&rep](const char* key, double v) {
    rep.stats.emplace_back(key, v);
  };
  auto check = [&rep](bool ok, const std::string& what) {
    if (!ok) rep.problems.push_back(what);
  };

  const sim::Simulator& sim = system.scenario().simulator();
  d.add("sim.events", sim.events_processed());
  d.add("sim.queue_high_water",
        static_cast<std::uint64_t>(sim.queue_high_water()));
  d.add("sim.now", sim.now());

  const net::NetStats& net = system.scenario().network().stats();
  d.add("net.unicast_sent", static_cast<std::uint64_t>(net.unicast_sent));
  d.add("net.unicast_delivered",
        static_cast<std::uint64_t>(net.unicast_delivered));
  d.add("net.broadcast_sent", static_cast<std::uint64_t>(net.broadcast_sent));
  d.add("net.broadcast_receptions",
        static_cast<std::uint64_t>(net.broadcast_receptions));
  d.add("net.dropped", static_cast<std::uint64_t>(net.dropped));
  d.add("net.bytes_sent", static_cast<std::uint64_t>(net.bytes_sent));
  d.add("net.hop_delay", net.hop_delay);
  stat("net.unicast_sent", static_cast<double>(net.unicast_sent));
  stat("net.broadcast_receptions",
       static_cast<double>(net.broadcast_receptions));
  stat("net.dropped", static_cast<double>(net.dropped));

  vcloud::VehicularCloud& cloud = system.cloud();
  const vcloud::CloudStats& cs = cloud.stats();
  d.add("cloud.submitted", static_cast<std::uint64_t>(cs.submitted));
  d.add("cloud.completed", static_cast<std::uint64_t>(cs.completed));
  d.add("cloud.failed", static_cast<std::uint64_t>(cs.failed));
  d.add("cloud.expired", static_cast<std::uint64_t>(cs.expired));
  d.add("cloud.migrations", static_cast<std::uint64_t>(cs.migrations));
  d.add("cloud.reallocations", static_cast<std::uint64_t>(cs.reallocations));
  d.add("cloud.wasted_work", cs.wasted_work);
  d.add("cloud.latency", cs.latency);
  d.add("cloud.queue_delay", cs.queue_delay);
  d.add("cloud.latency_tail", cs.latency_tail);
  d.add("cloud.queue_delay_tail", cs.queue_delay_tail);
  d.add("cloud.retries", static_cast<std::uint64_t>(cs.retries));
  d.add("cloud.crash_kills", static_cast<std::uint64_t>(cs.crash_kills));
  d.add("cloud.false_positive_kills",
        static_cast<std::uint64_t>(cs.false_positive_kills));
  d.add("cloud.checkpoints", static_cast<std::uint64_t>(cs.checkpoints));
  d.add("cloud.replicas_launched",
        static_cast<std::uint64_t>(cs.replicas_launched));
  d.add("cloud.broker_resyncs", static_cast<std::uint64_t>(cs.broker_resyncs));
  d.add("cloud.redundant_work", cs.redundant_work);
  d.add("cloud.checkpoint_mb", cs.checkpoint_mb);
  d.add("cloud.detection_latency", cs.detection_latency);
  d.add("cloud.members", static_cast<std::uint64_t>(cloud.member_count()));
  d.add("cloud.pending", static_cast<std::uint64_t>(cloud.pending_count()));
  d.add("cloud.broker_changes",
        static_cast<std::uint64_t>(cloud.broker_changes()));
  stat("cloud.submitted", static_cast<double>(cs.submitted));
  stat("cloud.completed", static_cast<double>(cs.completed));
  stat("cloud.failed", static_cast<double>(cs.failed));
  stat("cloud.expired", static_cast<double>(cs.expired));
  stat("cloud.retries", static_cast<double>(cs.retries));
  check(cs.completed + cs.failed + cs.expired <= cs.submitted,
        "cloud: more terminal tasks than submitted");

  std::size_t dag_attempts = 0;
  if (const dag::DagScheduler* dsched = system.dag(); dsched != nullptr) {
    const dag::DagStats& ds = dsched->stats();
    dag_attempts = ds.nodes_submitted;
    d.add("dag.graphs_submitted", static_cast<std::uint64_t>(ds.graphs_submitted));
    d.add("dag.graphs_completed", static_cast<std::uint64_t>(ds.graphs_completed));
    d.add("dag.graphs_failed", static_cast<std::uint64_t>(ds.graphs_failed));
    d.add("dag.nodes_submitted", static_cast<std::uint64_t>(ds.nodes_submitted));
    d.add("dag.nodes_succeeded", static_cast<std::uint64_t>(ds.nodes_succeeded));
    d.add("dag.resubmits", static_cast<std::uint64_t>(ds.resubmits));
    d.add("dag.backups", static_cast<std::uint64_t>(ds.backups));
    d.add("dag.transfers", static_cast<std::uint64_t>(ds.transfers));
    d.add("dag.transfer_mb", ds.transfer_mb);
    d.add("dag.makespan", ds.makespan);
    d.add("dag.node_latency_tail", ds.node_latency_tail);
    stat("dag.graphs_submitted", static_cast<double>(ds.graphs_submitted));
    stat("dag.graphs_failed", static_cast<double>(ds.graphs_failed));
    stat("dag.nodes_submitted", static_cast<double>(ds.nodes_submitted));
    stat("dag.nodes_succeeded", static_cast<double>(ds.nodes_succeeded));
    check(ds.graphs_submitted == rep.load.graphs,
          "dag: graphs_submitted differs from graphs the runner submitted");
    check(ds.graphs_completed + ds.graphs_failed <= ds.graphs_submitted,
          "dag: more terminal graphs than submitted");
  }
  check(cs.submitted == rep.load.tasks + dag_attempts,
        "cloud: submitted differs from runner tasks + DAG attempts");

  if (const storage::StorageService* store = system.storage();
      store != nullptr) {
    const storage::StorageStats& st = store->stats();
    d.add("storage.objects", static_cast<std::uint64_t>(st.objects));
    d.add("storage.writes_acked", static_cast<std::uint64_t>(st.writes_acked));
    d.add("storage.writes_failed", static_cast<std::uint64_t>(st.writes_failed));
    d.add("storage.reads_quorum", static_cast<std::uint64_t>(st.reads_quorum));
    d.add("storage.reads_degraded",
          static_cast<std::uint64_t>(st.reads_degraded));
    d.add("storage.reads_failed", static_cast<std::uint64_t>(st.reads_failed));
    d.add("storage.leases_granted",
          static_cast<std::uint64_t>(st.leases_granted));
    d.add("storage.leases_renewed",
          static_cast<std::uint64_t>(st.leases_renewed));
    d.add("storage.leases_expired",
          static_cast<std::uint64_t>(st.leases_expired));
    d.add("storage.leases_regranted",
          static_cast<std::uint64_t>(st.leases_regranted));
    d.add("storage.repair_copies", static_cast<std::uint64_t>(st.repair_copies));
    d.add("storage.freshen_copies",
          static_cast<std::uint64_t>(st.freshen_copies));
    d.add("storage.pruned", static_cast<std::uint64_t>(st.pruned));
    d.add("storage.mb_copied", st.mb_copied);
    d.add("storage.put_latency_tail", st.put_latency_tail);
    d.add("storage.get_latency_tail", st.get_latency_tail);
    stat("storage.writes_acked", static_cast<double>(st.writes_acked));
    stat("storage.writes_failed", static_cast<double>(st.writes_failed));
    stat("storage.reads_degraded", static_cast<double>(st.reads_degraded));
    stat("storage.reads_failed", static_cast<double>(st.reads_failed));
    stat("storage.repair_copies", static_cast<double>(st.repair_copies));
    check(st.writes_acked + st.writes_failed == rep.load.puts,
          "storage: acked + failed writes differ from puts issued");
    check(st.reads_quorum + st.reads_degraded + st.reads_failed ==
              rep.load.gets,
          "storage: quorum + degraded + failed reads differ from gets issued");
  }

  if (const fault::FaultInjector* inj = system.injector(); inj != nullptr) {
    const fault::FaultStats& fs = inj->stats();
    d.add("fault.vehicle_crashes", static_cast<std::uint64_t>(fs.vehicle_crashes));
    d.add("fault.broker_crashes", static_cast<std::uint64_t>(fs.broker_crashes));
    d.add("fault.rsu_outages", static_cast<std::uint64_t>(fs.rsu_outages));
    d.add("fault.rsu_repairs", static_cast<std::uint64_t>(fs.rsu_repairs));
    d.add("fault.blackouts", static_cast<std::uint64_t>(fs.blackouts));
  }

  if (const vcloud::InvariantOracle* oracle = system.oracle();
      oracle != nullptr) {
    d.add("oracle.checks", static_cast<std::uint64_t>(oracle->checks_run()));
    d.add("oracle.violations",
          static_cast<std::uint64_t>(oracle->violation_count()));
    stat("oracle.checks", static_cast<double>(oracle->checks_run()));
    stat("oracle.violations", static_cast<double>(oracle->violation_count()));
    check(oracle->violation_count() == 0, "oracle: invariant violations");
  }

  d.add("load.tasks", static_cast<std::uint64_t>(rep.load.tasks));
  d.add("load.puts", static_cast<std::uint64_t>(rep.load.puts));
  d.add("load.gets", static_cast<std::uint64_t>(rep.load.gets));
  d.add("load.graphs", static_cast<std::uint64_t>(rep.load.graphs));
  rep.digest = d.hex();

  rep.events = sim.events_processed();
  rep.queue_high_water = sim.queue_high_water();
  rep.profile = sim.profile();
}

// Construction, start() and workload installation: the set-up a user pays
// before the first simulated step. Returns the started system.
std::unique_ptr<core::VehicularCloudSystem> set_up(
    const Workload& w, std::uint64_t seed, SimTime horizon, Rep& rep) {
  auto t0 = Clock::now();
  core::SystemConfig config = w.config(seed, horizon);
  config.telemetry.profile_kernel = rep.traced;
  auto system = std::make_unique<core::VehicularCloudSystem>(std::move(config));
  rep.construct_s = seconds_since(t0);
  t0 = Clock::now();
  system->start();
  rep.start_s = seconds_since(t0);
  t0 = Clock::now();
  w.install(*system, seed, rep.load, rep.traced ? &rep.times : nullptr);
  rep.install_s = seconds_since(t0);
  return system;
}

// `rep` must outlive the system: arrival closures hold its load and times.
void run_rep(const Workload& w, std::uint64_t seed, SimTime horizon,
             Rep& rep) {
  std::unique_ptr<core::VehicularCloudSystem> system =
      set_up(w, seed, horizon, rep);
  const auto steps = static_cast<std::size_t>(horizon / kStep + 0.5);
  rep.step_ms.reserve(steps);
  double members = 0.0;
  for (std::size_t i = 0; i < steps; ++i) {
    const auto t0 = Clock::now();
    system->run_for(kStep);
    rep.step_ms.push_back(seconds_since(t0) * 1e3);
    members += static_cast<double>(system->cloud().member_count());
  }
  for (double ms : rep.step_ms) rep.run_s += ms / 1e3;
  rep.members_mean = steps ? members / static_cast<double>(steps) : 0.0;
  finish(*system, rep);
}

// --- output --------------------------------------------------------------------

void write_numbers(obs::JsonWriter& j, const char* key,
                   const std::vector<double>& xs) {
  j.key(key).begin_array();
  for (double x : xs) j.value(x);
  j.end_array();
}

void write_rep(obs::JsonWriter& j, const Rep& r) {
  j.begin_object();
  j.key("traced").value(r.traced);
  j.key("construct_s").value(r.construct_s);
  j.key("start_s").value(r.start_s);
  j.key("install_s").value(r.install_s);
  j.key("run_s").value(r.run_s);
  write_numbers(j, "step_ms", r.step_ms);
  j.key("members_mean").value(r.members_mean);
  j.key("events").value(r.events);
  j.key("queue_high_water").value(static_cast<std::uint64_t>(r.queue_high_water));
  j.key("profile").begin_object();
  for (const sim::ProfileEntry& e : r.profile) {
    j.key(e.label).begin_object();
    j.key("events").value(e.events);
    j.key("wall_s").value(e.wall_seconds);
    j.end_object();
  }
  j.end_object();
  j.key("calls").begin_object();
  write_numbers(j, "submit_us", r.times.submit_us);
  write_numbers(j, "submit_workload_ms", r.times.batch_ms);
  write_numbers(j, "put_us", r.times.put_us);
  write_numbers(j, "get_us", r.times.get_us);
  write_numbers(j, "submit_graph_us", r.times.submit_graph_us);
  j.end_object();
  j.key("load").begin_object();
  j.key("tasks").value(static_cast<std::uint64_t>(r.load.tasks));
  j.key("puts").value(static_cast<std::uint64_t>(r.load.puts));
  j.key("gets").value(static_cast<std::uint64_t>(r.load.gets));
  j.key("graphs").value(static_cast<std::uint64_t>(r.load.graphs));
  j.end_object();
  j.key("stats").begin_object();
  for (const auto& [k, v] : r.stats) j.key(k).value(v);
  j.end_object();
  j.key("digest").value(r.digest);
  j.key("problems").begin_array();
  for (const std::string& p : r.problems) j.value(p);
  j.end_array();
  j.end_object();
}

// Peak resident set of this process in KiB: VmHWM, which starts afresh at
// exec. getrusage's ru_maxrss would also count the parent's peak before the
// exec, and the parent can outgrow a small workload.
std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  std::uint64_t kb = 0;
  while (status >> key) {
    if (key == "VmHWM:" && status >> kb) return kb;
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "vcl_perfbench: " << problem << "\n"
            << "usage: vcl_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--horizon SIMSECONDS]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

double parse_number(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= 0.0)) {
    usage(flag + " needs a non-negative number, got '" + text + "'");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef VCL_PERFBENCH_SANITIZED
  std::cerr << "vcl_perfbench: refusing to time a sanitizer build\n";
  return 3;
#endif
  const Workload* workload = nullptr;
  std::uint64_t seed = 42;
  double budget_s = 10.0;
  bool trace = false;
  double horizon = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == std::string(w.name)) workload = &w;
      }
      if (workload == nullptr) usage(std::string("unknown workload ") + value);
    } else if (flag == "--seed") {
      seed = static_cast<std::uint64_t>(parse_number(flag, value));
    } else if (flag == "--seconds") {
      budget_s = parse_number(flag, value);
    } else if (flag == "--trace") {
      trace = parse_number(flag, value) != 0.0;
    } else if (flag == "--horizon") {
      horizon = parse_number(flag, value);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (workload == nullptr) usage("--workload is required");
  if (horizon <= 0.0) horizon = workload->horizon;

  // Repeat until the budget is spent: stop once another repetition of the
  // mean length would overrun it. A traced run alternates untraced and
  // traced repetitions and makes at least one of each.
  const std::size_t min_reps = trace ? 2 : 3;
  std::vector<Rep> reps;
  const auto t0 = Clock::now();
  while (true) {
    Rep& rep = reps.emplace_back();
    rep.traced = trace && reps.size() % 2 == 0;
    run_rep(*workload, seed, horizon, rep);
    const double spent = seconds_since(t0);
    const double mean = spent / static_cast<double>(reps.size());
    if (reps.size() >= min_reps && spent + mean > budget_s) break;
  }

  // Set-up is short and noisy, so take at least this many samples of it:
  // extra set-ups build, start and install the workload, then tear down.
  constexpr std::size_t kMinSetups = 7;
  std::vector<Rep> setups;
  while (!trace && reps.size() + setups.size() < kMinSetups) {
    Rep& rep = setups.emplace_back();
    set_up(*workload, seed, horizon, rep);
  }

  obs::JsonWriter j(std::cout);
  j.begin_object();
  j.key("workload").value(workload->name);
  j.key("seed").value(seed);
  j.key("horizon").value(horizon);
  j.key("step").value(kStep);
  j.key("host").begin_object();
  j.key("nproc").value(
      static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.key("compiler").value(__VERSION__);
  j.key("build_type").value(VCL_PERFBENCH_BUILD_TYPE);
  j.end_object();
  j.key("peak_rss_kb").value(peak_rss_kb());
  j.key("reps").begin_array();
  for (const Rep& r : reps) write_rep(j, r);
  j.end_array();
  j.key("setups_s").begin_array();
  for (const Rep& r : setups) {
    j.value(r.construct_s + r.start_s + r.install_s);
  }
  j.end_array();
  j.end_object();
  std::cout << '\n';
  return 0;
}
