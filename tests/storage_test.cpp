// Storage service tests (DESIGN.md §10): the one quorum deployment, lease
// timing edges, quorum write/read against a parked cloud, graceful degradation
// under a blackout, the storage-targeted storm shape, and the end-to-end
// oracle demo — the deliberately broken repair pipeline loses acked data,
// the storage-durability invariant catches it, and the failing fault plan
// shrinks to a handful of events.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/chaos.h"
#include "core/system.h"
#include "fault/chaos.h"
#include "storage/lease.h"
#include "storage/service.h"

namespace vcl {
namespace {

// Object `id` as the invariant oracle sees it (for_each_object).
vcloud::StorageObjectView object_view(const storage::StorageService& store,
                                      FileId id) {
  vcloud::StorageObjectView out;
  store.for_each_object([&](const vcloud::StorageObjectView& v) {
    if (v.object == id) out = v;
  });
  return out;
}

// ---- the one deployment -----------------------------------------------------

TEST(StorageConfig, DefaultIsValid) {
  // Storage is off by default; switched on it runs the N = 3, W = 2
  // quorum model the oracle audits against.
  EXPECT_FALSE(storage::StorageConfig{}.enabled);
  core::SystemConfig sys;
  sys.scenario.environment = core::Environment::kParkingLot;
  sys.scenario.vehicles = 10;
  sys.scenario.vehicles_parked = true;
  sys.architecture = core::CloudArchitecture::kStationary;
  sys.storage.enabled = true;
  core::VehicularCloudSystem system(sys);
  system.start();
  ASSERT_NE(system.storage(), nullptr);
  EXPECT_EQ(system.storage()->replica_target(), 3u);
  EXPECT_EQ(system.storage()->write_quorum(), 2u);
}

// ---- lease timing edges -----------------------------------------------------

TEST(LeaseTable, RenewalRacingExpiryAtTheSameInstantSucceeds) {
  storage::LeaseTable leases;
  const VehicleId v{7};
  leases.grant(v, 10.0);  // expires at 13.0
  EXPECT_TRUE(leases.held(v, 13.0));       // expiry instant inclusive
  EXPECT_TRUE(leases.renew(v, 13.0));      // renewal wins the race
  EXPECT_TRUE(leases.held(v, 16.0));       // extended to 16.0
  EXPECT_FALSE(leases.held(v, 16.0 + 1e-9));
}

TEST(LeaseTable, HolderSilentBetweenGrantAndFirstRenewalExpires) {
  storage::LeaseTable leases;
  const VehicleId v{7};
  leases.grant(v, 0.0);
  // The holder crashes before its first heartbeat: no renewals arrive.
  EXPECT_FALSE(leases.renew(v, 3.5));  // too late — expired leases stay dead
  EXPECT_FALSE(leases.held(v, 3.5));
  const std::vector<VehicleId> expired = leases.expired(3.5);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], v);
  // It stays *known* (suspect) until explicitly revoked: expiry never
  // deletes bookkeeping, only the repair pipeline does.
  EXPECT_TRUE(leases.known(v));
}

TEST(LeaseTable, RepairReGrantsARecoveredHolder) {
  storage::LeaseTable leases;
  const VehicleId v{3};
  leases.grant(v, 0.0);
  EXPECT_FALSE(leases.held(v, 5.0));   // expired long ago
  EXPECT_FALSE(leases.renew(v, 5.0));  // renewal alone cannot revive it
  leases.grant(v, 5.0);                // the repair pipeline re-grants
  EXPECT_TRUE(leases.held(v, 7.0));
  EXPECT_TRUE(leases.renew(v, 6.0));
}

// ---- quorum operations against a parked cloud -------------------------------

core::SystemConfig parked_storage_system(std::uint64_t seed) {
  core::SystemConfig sys;
  sys.scenario.environment = core::Environment::kParkingLot;
  sys.scenario.seed = seed;
  sys.scenario.vehicles = 20;
  sys.scenario.vehicles_parked = true;
  sys.architecture = core::CloudArchitecture::kStationary;
  sys.stationary_radius = 5000.0;
  sys.cloud.dependability.detector.enabled = true;
  sys.storage.enabled = true;
  return sys;
}

TEST(StorageService, QuorumWriteThenFreshRead) {
  core::VehicularCloudSystem system(parked_storage_system(11));
  system.start();
  system.run_for(2.0);
  storage::StorageService& store = *system.storage();
  auto& sim = system.scenario().simulator();

  const FileId object = store.create(sim.now());
  EXPECT_EQ(store.stats().objects, 1u);

  const storage::WriteResult w = store.put(1, object, sim.now());
  ASSERT_TRUE(w.acked);
  EXPECT_EQ(w.version, 1u);
  EXPECT_GE(w.replicas, store.write_quorum());
  EXPECT_EQ(object_view(store, object).acked_version, 1u);

  const storage::ReadResult r = store.get(1, object, sim.now());
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.version, 1u);
  EXPECT_GE(r.responses, 2u);  // R = 2
  // Live replicas holding the acked version.
  const vcloud::StorageObjectView view = object_view(store, object);
  EXPECT_GE(std::count_if(view.replicas.begin(), view.replicas.end(),
                          [&](const vcloud::StorageReplicaView& r) {
                            return r.alive && r.version >= view.acked_version;
                          }),
            static_cast<std::ptrdiff_t>(store.write_quorum()));
}

TEST(StorageService, ReadDegradesInsideABlackoutAndRecoversAfter) {
  core::VehicularCloudSystem system(parked_storage_system(12));
  system.start();
  system.run_for(2.0);
  storage::StorageService& store = *system.storage();
  auto& sim = system.scenario().simulator();

  const FileId object = store.create(sim.now());
  ASSERT_TRUE(store.put(1, object, sim.now()).acked);

  // A blackout blanketing the whole lot: every radio leg is lost, so a
  // quorum of R distinct replicas is unreachable. The read must degrade
  // (or fail outright) — never report a fresh quorum read.
  const auto [lo, hi] = system.scenario().road().bounding_box();
  const geo::Vec2 center{(lo.x + hi.x) / 2, (lo.y + hi.y) / 2};
  auto& channel = system.scenario().network().channel();
  const std::uint64_t token = channel.add_blackout({center, 1e6});
  const storage::ReadResult dark = store.get(1, object, sim.now());
  EXPECT_TRUE(!dark.ok || dark.degraded);

  channel.remove_blackout(token);
  const storage::ReadResult light = store.get(1, object, sim.now());
  ASSERT_TRUE(light.ok);
  EXPECT_FALSE(light.degraded);
  EXPECT_EQ(light.version, object_view(store, object).acked_version);
}

// ---- storage-targeted storm shape -------------------------------------------

fault::ChaosConfig storage_storm_config() {
  fault::ChaosConfig cfg;
  cfg.base.horizon = 100.0;
  cfg.base.blackout_lo = {0, 0};
  cfg.base.blackout_hi = {1000, 1000};
  cfg.base.blackout_radius = 300.0;
  cfg.storms.storage_rate = 0.05;
  return cfg;
}

TEST(ChaosPlanner, StorageStormPairsABlackoutWithTaggedCrashes) {
  const fault::ChaosPlanner planner(storage_storm_config());
  const fault::FaultPlan plan = planner.plan(5);
  ASSERT_FALSE(plan.empty());

  std::size_t blackouts = 0;
  std::vector<const fault::FaultEvent*> tagged;
  for (const fault::FaultEvent& e : plan) {
    if (e.kind == fault::FaultKind::kRadioBlackout) ++blackouts;
    if (e.kind == fault::FaultKind::kVehicleCrash) {
      EXPECT_NE(e.storage_tag, 0u);  // this config only emits storage storms
      tagged.push_back(&e);
    }
  }
  EXPECT_GT(blackouts, 0u);
  ASSERT_GE(tagged.size(), 2u);
  // Crashes of one storm share the tag and fire strictly inside the
  // blackout window; with 2 crashes per storm consecutive pairs match.
  EXPECT_EQ(tagged[0]->storage_tag, tagged[1]->storage_tag);

  // Deterministic per seed.
  const fault::FaultPlan again = planner.plan(5);
  ASSERT_EQ(plan.size(), again.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].at, again[i].at);
    EXPECT_EQ(plan[i].storage_tag, again[i].storage_tag);
  }
}

TEST(ChaosPlanner, StorageTagRoundTripsThroughJsonl) {
  const fault::ChaosPlanner planner(storage_storm_config());
  const fault::FaultPlan plan = planner.plan(9);
  ASSERT_FALSE(plan.empty());

  std::stringstream buf;
  fault::FaultPlanMeta meta;
  meta.seed = 9;
  fault::write_fault_plan_jsonl(plan, meta, buf);

  fault::FaultPlan parsed;
  fault::FaultPlanMeta parsed_meta;
  std::string error;
  ASSERT_TRUE(fault::parse_fault_plan_jsonl(buf, parsed, parsed_meta, &error))
      << error;
  ASSERT_EQ(parsed.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(parsed[i].kind, plan[i].kind);
    EXPECT_EQ(parsed[i].at, plan[i].at);
    EXPECT_EQ(parsed[i].storage_tag, plan[i].storage_tag);
  }
}

TEST(ChaosConfigValidation, StorageStormNeedsAUsableBlackoutBox) {
  fault::ChaosConfig cfg;
  cfg.storms.storage_rate = 0.01;  // box left at its all-zero default
  EXPECT_NE(fault::validate(cfg), "");

  cfg = storage_storm_config();
  cfg.base.blackout_lo = {2000, 0};  // inverted: lo.x > hi.x
  EXPECT_NE(fault::validate(cfg), "");

  EXPECT_EQ(fault::validate(storage_storm_config()), "");
}

// ---- oracle unit behavior ---------------------------------------------------

TEST(InvariantOracle, MonotonicReadsCatchAQuorumReadGoingBackwards) {
  vcloud::InvariantOracle oracle(77);
  const FileId object{1};
  oracle.on_storage_read(/*client=*/4, object, /*version=*/5,
                         /*degraded=*/false, 10.0);
  EXPECT_TRUE(oracle.ok());
  // A degraded (stale-risk flagged) read is exempt by contract.
  oracle.on_storage_read(4, object, 2, /*degraded=*/true, 11.0);
  EXPECT_TRUE(oracle.ok());
  // A *quorum* read below the client's floor is a hard violation.
  oracle.on_storage_read(4, object, 3, /*degraded=*/false, 12.0);
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.violations()[0].invariant, "storage-monotonic-reads");
  // Another client has its own floor.
  oracle.on_storage_read(5, object, 3, /*degraded=*/false, 13.0);
  EXPECT_EQ(oracle.violation_count(), 1u);
}

// ---- end-to-end: chaos soak and the seeded repair bug -----------------------

core::ChaosScenarioConfig short_storage_episode(std::uint64_t seed) {
  core::ChaosScenarioConfig cfg;
  cfg.seed = seed;
  cfg.vehicles = 20;
  cfg.duration = 40.0;
  cfg.drain = 20.0;
  cfg.storage = true;
  return cfg;
}

TEST(ChaosStorage, ShortSoakIsCleanAndExercisesTheService) {
  std::size_t acked = 0;
  std::size_t checks = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const core::ChaosEpisode episode =
        core::run_chaos_episode(short_storage_episode(seed));
    EXPECT_TRUE(episode.ok())
        << "seed " << seed << ": "
        << (episode.violations.empty() ? std::string("?")
                                       : episode.violations[0].to_string());
    acked += episode.storage_writes_acked;
    checks += episode.checks_run;
  }
  EXPECT_GT(acked, 0u);   // the episodes really served storage traffic
  EXPECT_GT(checks, 0u);  // and the oracle really scanned them
}

TEST(ChaosStorage, SeededRepairBugIsCaughtAndShrinksSmall) {
  // Scan a few seeds for an episode where the armed repair bug destroys an
  // acked object (any blackout outliving the lease duration suffices).
  core::ChaosScenarioConfig bad_cfg;
  core::ChaosEpisode bad;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 10 && !found; ++seed) {
    core::ChaosScenarioConfig cfg = short_storage_episode(seed);
    cfg.seeded_bug = vcloud::SeededBug::kRepairReplace;
    const core::ChaosEpisode episode = core::run_chaos_episode(cfg);
    if (!episode.ok()) {
      bad_cfg = cfg;
      bad = episode;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed in 1..10 triggered the armed repair bug";

  // The loss is reported as the no-acked-write-loss invariant.
  const bool durability_fired = std::any_of(
      bad.violations.begin(), bad.violations.end(),
      [](const vcloud::InvariantViolation& v) {
        return v.invariant == "storage-durability";
      });
  EXPECT_TRUE(durability_fired)
      << "first stored violation: " << bad.violations[0].to_string();

  // The schedule shrinks to a small core (storm shapes arrive as blackout +
  // tagged-crash clusters; the bug needs only one long-enough blackout).
  const fault::FaultPlan minimal = fault::shrink_fault_plan(
      bad.plan, [&](const fault::FaultPlan& candidate) {
        return !core::run_chaos_episode(bad_cfg, candidate).ok();
      });
  EXPECT_LE(minimal.size(), 5u);
  ASSERT_FALSE(core::run_chaos_episode(bad_cfg, minimal).ok());

  // Disarm the bug and replay the same minimal schedule: the healthy
  // repair pipeline survives it.
  core::ChaosScenarioConfig fixed = bad_cfg;
  fixed.seeded_bug = vcloud::SeededBug::kNone;
  EXPECT_TRUE(core::run_chaos_episode(fixed, minimal).ok());
}

TEST(ChaosStorage, ReproFileCarriesStorageFlags) {
  core::ChaosScenarioConfig cfg = short_storage_episode(3);
  cfg.seeded_bug = vcloud::SeededBug::kRepairReplace;
  const fault::FaultPlan plan;  // flags matter here, not events

  std::stringstream buf;
  core::write_chaos_repro(cfg, plan, buf);
  core::ChaosScenarioConfig loaded;
  fault::FaultPlan loaded_plan;
  std::string error;
  ASSERT_TRUE(core::load_chaos_repro(buf, loaded, loaded_plan, &error))
      << error;
  EXPECT_TRUE(loaded.storage);
  EXPECT_EQ(loaded.seeded_bug, vcloud::SeededBug::kRepairReplace);
  EXPECT_EQ(loaded.seed, cfg.seed);
}

}  // namespace
}  // namespace vcl
