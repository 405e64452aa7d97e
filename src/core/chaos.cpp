#include "core/chaos.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <memory>

#include "core/system.h"
#include "dag/generator.h"
#include "obs/json.h"
#include "obs/telemetry.h"

namespace vcl::core {

namespace {

ScenarioConfig scenario_for(const ChaosScenarioConfig& config) {
  ScenarioConfig scenario;
  scenario.environment = Environment::kParkingLot;
  scenario.seed = config.seed;
  scenario.vehicles = config.vehicles;
  scenario.vehicles_parked = true;
  // A small RSU deployment so outage/flap events act on real units.
  scenario.rsu_spacing = 400.0;
  return scenario;
}

SystemConfig system_for(const ChaosScenarioConfig& config) {
  SystemConfig sys;
  sys.scenario = scenario_for(config);
  sys.architecture = CloudArchitecture::kStationary;
  sys.stationary_radius = 5000.0;
  // Full mitigation mode (the bench_dependability "full" cell): chaos must
  // exercise every recovery path, not the trivially-safe baseline.
  sys.cloud.dependability = vcloud::full_mitigation();
  sys.invariant_oracle = true;
  if (config.storage) {
    sys.storage.enabled = true;  // canonical N=3 / W=2 / R=2 deployment
  }
  if (config.adversary) {
    sys.adversary = true;
    sys.admission.defend = true;  // episodes test the defended path
    // Storm replays are minted well past this window (ChaosConfig's
    // replay_age default), so a defended episode rejects the whole flood.
    sys.admission.freshness_window = 4.0;
  }
  if (config.dag) {
    sys.dag.enabled = true;
    // Reliability-aware: the policy with the most moving parts (backup
    // launches, dwell predictions on crashed hosts) — what chaos is for.
    sys.dag.policy = dag::DagPolicy::kReliabilityAware;
    sys.dag.replicas = 2;
    // Attempts only terminate completed or expired (the cloud requeues
    // crashes internally), so a graph deadline is what makes the failure
    // path — and the seeded stranded-node bug behind it — reachable.
    sys.dag.graph_deadline = 30.0;
  }
  return sys;
}

// Deterministic client op mix for storage episodes: no RNG — the op index
// alone decides put vs get and which client/object is involved, so the
// stream is identical whatever the fault schedule does.
constexpr std::size_t kStorageObjects = 8;
constexpr std::size_t kStorageClients = 4;
constexpr SimTime kStorageOpPeriod = 0.7;

// DAG episodes submit one generated graph per period; shapes cycle through
// the generator's canon (chain, fork-join, diamond, layered).
constexpr SimTime kDagSubmitPeriod = 6.0;

// Snapshots the whole system into a vcl-incident-v1 bundle at the instant
// `first` fired. Runs inside the oracle's violation hook — i.e. inside a
// cloud refresh or terminal transition — so it only reads const accessors
// and never touches the simulator. Ids use the bundle convention 0 = none
// (Id<Tag>'s internal invalid value is UINT64_MAX, never serialized).
obs::IncidentBundle snapshot_incident(VehicularCloudSystem& system,
                                      const ChaosScenarioConfig& config,
                                      const vcloud::InvariantViolation& first) {
  obs::IncidentBundle b;
  b.seed = config.seed;
  b.captured_at = first.at;
  b.trigger = first.invariant;

  const obs::FlightRecorder& flight = system.flight();
  b.flight_recorded = flight.recorded();
  b.flight_overwritten = flight.overwritten();
  obs::append_flight_tail(b, flight.tail());

  const vcloud::VehicularCloud& cloud = system.cloud();
  b.broker = cloud.broker().valid() ? cloud.broker().value() : 0;
  b.pending = cloud.pending_count();
  for (VehicleId v : cloud.worker_ids()) {
    obs::IncidentWorker w;
    w.id = v.value();
    w.crashed = cloud.worker_crashed(v);
    w.tracked = cloud.detector().tracked(v);
    b.workers.push_back(w);
  }
  cloud.for_each_task([&b](const vcloud::Task& t) {
    if (t.terminal()) return;
    obs::IncidentTask it;
    it.id = t.id.value();
    it.state = vcloud::to_string(t.state);
    it.progress = t.progress;
    it.work = t.work;
    it.checkpoint = t.checkpoint_progress;
    it.worker = t.worker.valid() ? t.worker.value() : 0;
    it.trace_id = t.trace.trace_id;
    b.tasks.push_back(it);
  });

  if (const fault::FaultInjector* inj = system.injector(); inj != nullptr) {
    for (const fault::BlackoutWindow& w : inj->blackout_windows()) {
      obs::IncidentWindow iw;
      iw.start = w.start;
      iw.end = w.end;
      iw.x = w.center.x;
      iw.y = w.center.y;
      iw.radius = w.radius;
      iw.active = first.at >= w.start && first.at <= w.end;
      b.windows.push_back(iw);
    }
  }

  if (const obs::Telemetry* tel = system.telemetry(); tel != nullptr) {
    for (const obs::TraceRecorder::Event& e : tel->trace.open_spans()) {
      obs::IncidentOpenSpan s;
      s.begin = e.t;
      s.cat = obs::to_string(e.cat);
      s.name = e.name;
      s.trace_id = e.trace_id;
      s.span_id = e.span_id;
      b.open_spans.push_back(s);
    }
  }

  if (const storage::StorageService* store = system.storage();
      store != nullptr) {
    store->for_each_object([&b](const vcloud::StorageObjectView& o) {
      obs::IncidentObject io;
      io.id = o.object.valid() ? o.object.value() : 0;
      io.acked_version = o.acked_version;
      b.objects.push_back(io);
      for (const vcloud::StorageReplicaView& r : o.replicas) {
        obs::IncidentReplica ir;
        ir.object = io.id;
        ir.holder = r.holder.valid() ? r.holder.value() : 0;
        ir.version = r.version;
        ir.alive = r.alive;
        ir.lease_held = r.lease_held;
        b.replicas.push_back(ir);
      }
    });
  }

  if (const dag::DagScheduler* dsched = system.dag(); dsched != nullptr) {
    dsched->for_each_graph([&b](const vcloud::DagGraphView& g) {
      obs::IncidentDagGraph ig;
      ig.id = g.id;
      ig.terminal = g.terminal;
      ig.completed = g.completed;
      ig.intermediates_held = g.intermediates_held;
      b.graphs.push_back(ig);
      if (g.nodes == nullptr) return;
      for (std::size_t i = 0; i < g.nodes->size(); ++i) {
        const vcloud::DagNodeStateView& n = (*g.nodes)[i];
        obs::IncidentDagNode in;
        in.graph = g.id;
        in.node = i;
        in.submitted = n.submitted;
        in.succeeded = n.succeeded;
        in.live_attempts = n.live_attempts;
        b.dag_nodes.push_back(in);
      }
    });
  }

  return b;
}

}  // namespace

fault::ChaosConfig chaos_config_for(const ChaosScenarioConfig& config) {
  fault::ChaosConfig chaos;
  chaos.base.horizon = config.duration;
  chaos.base.vehicle_crash_rate = 0.02 * config.intensity;
  chaos.base.broker_crash_rate = 0.005 * config.intensity;
  chaos.base.rsu_outage_rate = 0.01 * config.intensity;
  chaos.base.rsu_repair_mean = 10.0;
  chaos.base.blackout_rate = 0.01 * config.intensity;
  chaos.base.blackout_mean_duration = 5.0;
  chaos.base.blackout_radius = 400.0;
  // The planner draws blackout centers itself, so the box the system would
  // normally backfill at start() has to be resolved here. A bare Scenario
  // (never started) is just the road graph — cheap.
  Scenario probe(scenario_for(config));
  const auto [lo, hi] = probe.road().bounding_box();
  chaos.base.blackout_lo = lo;
  chaos.base.blackout_hi = hi;
  if (config.storms) {
    chaos.storms.burst_rate = 0.02 * config.intensity;
    chaos.storms.cascade_rate = 0.01 * config.intensity;
    chaos.storms.flap_rate = 0.01 * config.intensity;
    if (config.storage) {
      // Storage worst case: burst-crash a write quorum of one object's
      // holders inside a blackout that is already eating lease renewals.
      chaos.storms.storage_rate = 0.01 * config.intensity;
    }
    if (config.dag) {
      // DAG worst case: repeatedly crash whichever worker currently holds
      // a live run's critical-path node, chasing re-placements.
      chaos.storms.dag_rate = 0.01 * config.intensity;
    }
    if (config.adversary) {
      // §IV worst cases: fabricated joins inside a verification blackout,
      // revocations racing their CRL to the RSUs while the victim holds
      // work, and captured-message floods past the freshness window.
      chaos.storms.sybil_rate = 0.02 * config.intensity;
      chaos.storms.revoke_rate = 0.01 * config.intensity;
      chaos.storms.replay_rate = 0.01 * config.intensity;
      chaos.storms.replay_window = 4.0;  // matches the episode freshness gate
      chaos.storms.replay_age = 6.0;     // every storm replay is stale
    }
  }
  return chaos;
}

ChaosEpisode run_chaos_episode(const ChaosScenarioConfig& config) {
  const fault::ChaosPlanner planner(chaos_config_for(config));
  return run_chaos_episode(config, planner.plan(config.seed));
}

ChaosEpisode run_chaos_episode(const ChaosScenarioConfig& config,
                               fault::FaultPlan plan,
                               const std::string& telemetry_dir) {
  SystemConfig sys = system_for(config);
  sys.fault_plan = std::move(plan);
  if (!telemetry_dir.empty()) {
    sys.telemetry.tracing = true;
    sys.telemetry.metrics = true;
  }

  VehicularCloudSystem system(sys);
  system.start();
  // start() reaches no gate site (no task, object or graph exists and no
  // revocation is visible yet), so this matches arming from the outset.
  system.cloud().arm_seeded_bug(config.seeded_bug);

  // Incident capture (DESIGN.md §12): snapshot the system at the FIRST
  // violation, inside the oracle's report() — the state the checker
  // actually objected to, not the drained end-of-episode state. Later
  // violations only append to the bundle's violation list after the run.
  auto incident = std::make_shared<obs::IncidentBundle>();
  bool incident_captured = false;
  if (system.oracle() != nullptr) {
    system.oracle()->set_violation_hook(
        [&system, &config, &incident,
         &incident_captured](const vcloud::InvariantViolation& v) {
          if (incident_captured) return;
          incident_captured = true;
          *incident = snapshot_incident(system, config, v);
        });
  }

  vcloud::WorkloadGenerator workload({30.0, 1.0, 0.2, 60.0},
                                     system.scenario().fork_rng(77));
  auto& sim = system.scenario().simulator();
  const SimTime load_until = config.duration;
  sim.schedule_every(config.submit_period, [&] {
    if (sim.now() < load_until) system.cloud().submit(workload.next(sim.now()));
  });
  std::size_t storage_op = 0;
  if (config.storage && system.storage() != nullptr) {
    storage::StorageService& store = *system.storage();
    std::vector<FileId> objects;
    objects.reserve(kStorageObjects);
    for (std::size_t i = 0; i < kStorageObjects; ++i) {
      objects.push_back(store.create(sim.now()));
    }
    sim.schedule_every(kStorageOpPeriod, [&store, &sim, &storage_op, objects,
                                          load_until] {
      if (sim.now() >= load_until) return;
      const std::size_t op = storage_op++;
      const FileId object = objects[op % objects.size()];
      const std::uint64_t client = op % kStorageClients;
      // Two reads per write: the monotonic-reads invariant needs plenty of
      // read pairs per client, and writes still touch every object often.
      if (op % 3 == 0) {
        store.put(client, object, sim.now());
      } else {
        store.get(client, object, sim.now());
      }
    });
  }
  if (config.dag && system.dag() != nullptr) {
    // Deterministic graph stream: its own forked RNG, so enabling the DAG
    // layer never reshuffles the task workload or the fault schedule. Light
    // graphs, so a healthy episode completes them well inside the graph
    // deadline and only injected chaos pushes one over it.
    dag::DagWorkloadConfig graphs;
    graphs.mean_node_work = 6.0;
    graphs.mean_transfer_mb = 0.5;
    graphs.mean_output_mb = 0.2;
    graphs.chain_length = 4;
    graphs.fanout = 4;
    graphs.layers = 3;
    graphs.layer_width = 2;
    auto gen = std::make_shared<dag::DagWorkloadGenerator>(
        graphs, system.scenario().fork_rng(78));
    dag::DagScheduler& dsched = *system.dag();
    sim.schedule_every(kDagSubmitPeriod, [&dsched, &sim, gen, load_until] {
      if (sim.now() < load_until) {
        dsched.submit_graph(gen->next(), sim.now());
      }
    });
  }
  system.run_for(config.duration + config.drain);

  if (incident_captured && system.oracle() != nullptr) {
    // The trigger snapshot keeps captured_at/trigger/state from the first
    // violation; the violation list is refreshed to the oracle's full
    // stored set so the bundle names everything the episode tripped.
    incident->violations.clear();
    for (const vcloud::InvariantViolation& v : system.oracle()->violations()) {
      obs::IncidentViolation iv;
      iv.t = v.at;
      iv.invariant = v.invariant;
      iv.detail = v.detail;
      iv.task = v.task.valid() ? v.task.value() : 0;
      incident->violations.push_back(std::move(iv));
    }
  }

  bool telemetry_failed = false;
  if (!telemetry_dir.empty() && system.telemetry() != nullptr) {
    telemetry_failed =
        !obs::write_telemetry(*system.telemetry(), telemetry_dir);
    // Oracle violations ride next to the trace so tools/vcl_report can fold
    // them into the run-health report: one flat JSON object per line
    // (vcl-violations-v1), written even when empty — an existing-but-empty
    // file distinguishes "checked clean" from "never exported".
    if (system.oracle() != nullptr) {
      std::ofstream os(telemetry_dir + "/violations.jsonl");
      if (os) {
        {
          obs::JsonWriter w(os);
          w.begin_object();
          w.key("meta").value("vcl-violations-v1");
          w.key("seed").value(config.seed);
          w.key("checks_run").value(
              static_cast<std::uint64_t>(system.oracle()->checks_run()));
          w.key("violations").value(
              static_cast<std::uint64_t>(system.oracle()->violation_count()));
          w.end_object();
        }
        os << '\n';
        for (const vcloud::InvariantViolation& v :
             system.oracle()->violations()) {
          obs::JsonWriter w(os);
          w.begin_object();
          w.key("t").value(v.at);
          w.key("invariant").value(v.invariant);
          w.key("detail").value(v.detail);
          if (v.task.valid()) {
            w.key("task").value(static_cast<double>(v.task.value()));
          }
          w.key("seed").value(v.seed);
          w.end_object();
          os << '\n';
        }
      }
      telemetry_failed |= !os.flush();
    }
    // The forensic bundle rides next to the repro and the trace
    // (vcl-incident-v1, rendered by tools/vcl_incident). Only written when
    // a violation actually fired — absence means "episode was clean".
    if (incident_captured) {
      std::ofstream os(telemetry_dir + "/incident.jsonl");
      if (os) obs::write_incident_bundle(*incident, os);
      telemetry_failed |= !os.flush();
    }
  }

  ChaosEpisode episode;
  episode.seed = config.seed;
  episode.plan = sys.fault_plan;
  episode.telemetry_failed = telemetry_failed;
  if (incident_captured) episode.incident = incident;
  const vcloud::InvariantOracle* oracle = system.oracle();
  if (oracle != nullptr) {
    episode.violations = oracle->violations();
    episode.violation_count = oracle->violation_count();
    episode.checks_run = oracle->checks_run();
  }
  const vcloud::CloudStats& stats = system.cloud().stats();
  episode.submitted = stats.submitted;
  episode.completed = stats.completed;
  episode.expired = stats.expired;
  if (system.injector() != nullptr) {
    episode.crashes = system.injector()->stats().vehicle_crashes +
                      system.injector()->stats().broker_crashes;
  }
  if (system.storage() != nullptr) {
    const storage::StorageStats& st = system.storage()->stats();
    episode.storage_writes_acked = st.writes_acked;
    episode.storage_reads_quorum = st.reads_quorum;
    episode.storage_reads_degraded = st.reads_degraded;
    episode.storage_repair_copies = st.repair_copies;
  }
  if (system.dag() != nullptr) {
    const dag::DagStats& ds = system.dag()->stats();
    episode.dag_graphs_submitted = ds.graphs_submitted;
    episode.dag_graphs_completed = ds.graphs_completed;
    episode.dag_graphs_failed = ds.graphs_failed;
    episode.dag_nodes_succeeded = ds.nodes_succeeded;
    episode.dag_backups = ds.backups;
  }
  if (system.admission() != nullptr) {
    const vcloud::AdmissionStats& as = system.admission()->stats();
    episode.sybil_claims = as.sybil_claims;
    episode.sybil_quarantined = as.sybil_quarantined;
    episode.sybil_admitted = as.sybil_admitted;
    episode.replays_seen = as.replays_seen;
    episode.replays_rejected = as.replays_rejected;
    episode.revocations = as.revocations;
    episode.revoked_evictions = as.revoked_evictions;
  }
  return episode;
}

void write_chaos_repro(const ChaosScenarioConfig& config,
                       const fault::FaultPlan& plan, std::ostream& os) {
  fault::FaultPlanMeta meta;
  meta.seed = config.seed;
  meta.set("vehicles", static_cast<double>(config.vehicles));
  meta.set("duration", config.duration);
  meta.set("drain", config.drain);
  meta.set("intensity", config.intensity);
  meta.set("storms", config.storms ? 1.0 : 0.0);
  meta.set("submit_period", config.submit_period);
  for (const SeededBugName& b : kSeededBugs) {
    if (b.mode != nullptr) meta.set(b.mode_key, config.*b.mode ? 1.0 : 0.0);
    meta.set(b.meta_key, config.seeded_bug == b.bug ? 1.0 : 0.0);
  }
  fault::write_fault_plan_jsonl(plan, meta, os);
}

bool load_chaos_repro(std::istream& is, ChaosScenarioConfig& config,
                      fault::FaultPlan& plan, std::string* error) {
  fault::FaultPlanMeta meta;
  if (!fault::parse_fault_plan_jsonl(is, plan, meta, error)) return false;
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "line " + std::to_string(meta.line) + ": " + what;
    }
    return false;
  };
  // Each knob must lie in the range vcl_chaos accepts for it: outside it a
  // replay can run without end (a zero submit period) or pass vacuously (a
  // negative load window). kPos is the "> 0" bound, as in vcl_chaos.
  constexpr double kPos = std::numeric_limits<double>::min();
  ChaosScenarioConfig c;
  double vehicles = c.vehicles;
  const struct {
    const char* key;
    double* value;
    double lo, hi;
    const char* expected;
  } knobs[] = {
      {"vehicles", &vehicles, 1, 1e5, "an integer in 1..100000"},
      {"duration", &c.duration, kPos, 1e6, "a number in (0, 1e6]"},
      {"drain", &c.drain, 0, 1e6, "a number in [0, 1e6]"},
      {"intensity", &c.intensity, 0, 1000, "a number in [0, 1000]"},
      {"submit_period", &c.submit_period, kPos,
       std::numeric_limits<double>::max(), "a finite number > 0"},
  };
  for (const auto& k : knobs) {
    const double v = *k.value = meta.get(k.key, *k.value);
    const bool whole = k.value != &vehicles || v == std::floor(v);
    if (!(v >= k.lo && v <= k.hi && whole)) {
      return fail(std::string("\"") + k.key + "\": expected " + k.expected +
                  ", got " + obs::json_number(v));
    }
  }
  c.seed = meta.seed;
  c.vehicles = static_cast<int>(vehicles);
  c.storms = meta.get("storms", c.storms ? 1.0 : 0.0) != 0.0;
  const char* armed = nullptr;
  for (const SeededBugName& b : kSeededBugs) {
    if (b.mode != nullptr) c.*b.mode = meta.get(b.mode_key, 0.0) != 0.0;
    if (meta.get(b.meta_key, 0.0) == 0.0) continue;
    if (armed != nullptr) {
      return fail(std::string("\"") + armed + "\" and \"" + b.meta_key +
                  "\" both arm a seeded bug; a repro arms at most one");
    }
    armed = b.meta_key;
    c.seeded_bug = b.bug;
  }
  config = c;
  return true;
}

}  // namespace vcl::core
