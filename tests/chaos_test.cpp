// Chaos engine tests (DESIGN.md §9): planner determinism and storm shapes,
// config validation, plan JSONL round-trips, the ddmin shrinker, and the
// end-to-end oracle demo — a deliberately seeded lost-task bug is caught by
// the invariant oracle and shrunk to a handful of fault events.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/chaos.h"
#include "fault/chaos.h"
#include "fault/fault_plan.h"

namespace vcl::fault {
namespace {

ChaosConfig storm_config() {
  ChaosConfig cfg;
  cfg.base.horizon = 100.0;
  cfg.base.vehicle_crash_rate = 0.02;
  cfg.base.broker_crash_rate = 0.01;
  cfg.base.rsu_outage_rate = 0.01;
  cfg.base.blackout_rate = 0.01;
  cfg.base.blackout_lo = {0, 0};
  cfg.base.blackout_hi = {1000, 1000};
  cfg.storms.burst_rate = 0.03;
  cfg.storms.cascade_rate = 0.02;
  cfg.storms.flap_rate = 0.02;
  return cfg;
}

bool plans_equal(const FaultPlan& a, const FaultPlan& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].at != b[i].at ||
        a[i].vehicle != b[i].vehicle || a[i].rsu != b[i].rsu ||
        a[i].repair_after != b[i].repair_after ||
        a[i].center.x != b[i].center.x || a[i].center.y != b[i].center.y ||
        a[i].radius != b[i].radius || a[i].duration != b[i].duration ||
        a[i].attack_tag != b[i].attack_tag ||
        a[i].crl_horizon_after != b[i].crl_horizon_after ||
        a[i].replay_age != b[i].replay_age || a[i].group != b[i].group) {
      return false;
    }
  }
  return true;
}

ChaosConfig attack_storm_config() {
  ChaosConfig cfg;
  cfg.base.horizon = 100.0;
  cfg.base.blackout_lo = {0, 0};
  cfg.base.blackout_hi = {1000, 1000};
  cfg.storms.sybil_rate = 0.05;
  cfg.storms.revoke_rate = 0.05;
  cfg.storms.replay_rate = 0.05;
  return cfg;
}

TEST(ChaosPlanner, DeterministicPerSeed) {
  const ChaosPlanner planner(storm_config());
  const FaultPlan a = planner.plan(42);
  const FaultPlan b = planner.plan(42);
  const FaultPlan c = planner.plan(43);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(plans_equal(a, b));
  EXPECT_FALSE(plans_equal(a, c));
}

TEST(ChaosPlanner, PlansAreSortedAndInsideHorizonStart) {
  const ChaosConfig cfg = storm_config();
  const ChaosPlanner planner(cfg);
  const FaultPlan plan = planner.plan(7);
  ASSERT_FALSE(plan.empty());
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_LE(plan[i - 1].at, plan[i].at);
  }
  // Storm *arrivals* stay inside [0, horizon); follow-on events (flap
  // cycles, cascade kills) may trail past it but only by a bounded window.
  const SimTime slack =
      std::max({cfg.storms.burst_window,
                cfg.storms.cascade_blackout_duration,
                cfg.storms.flap_period * cfg.storms.flap_cycles});
  for (const FaultEvent& e : plan) {
    EXPECT_GE(e.at, 0.0);
    EXPECT_LT(e.at, cfg.base.horizon + slack);
  }
}

TEST(ChaosPlanner, StormShapesShowUp) {
  ChaosConfig cfg = storm_config();
  cfg.base.vehicle_crash_rate = 0.0;  // isolate the storms
  cfg.base.broker_crash_rate = 0.0;
  cfg.base.rsu_outage_rate = 0.0;
  cfg.base.blackout_rate = 0.0;
  const ChaosPlanner planner(cfg);
  // Over a few seeds every storm shape must have fired at least once.
  bool saw_burst = false, saw_cascade = false, saw_flap = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const FaultPlan plan = planner.plan(seed);
    std::size_t crashes = 0, brokers = 0, outages = 0, blackouts = 0;
    for (const FaultEvent& e : plan) {
      crashes += e.kind == FaultKind::kVehicleCrash;
      brokers += e.kind == FaultKind::kBrokerCrash;
      outages += e.kind == FaultKind::kRsuOutage;
      blackouts += e.kind == FaultKind::kRadioBlackout;
    }
    saw_burst |= crashes > 0;
    saw_cascade |= blackouts > 0 && brokers > 0;
    saw_flap |= outages >= static_cast<std::size_t>(cfg.storms.flap_cycles);
  }
  EXPECT_TRUE(saw_burst);
  EXPECT_TRUE(saw_cascade);
  EXPECT_TRUE(saw_flap);
}

TEST(ChaosPlanner, FlapStormHitsOneExplicitRsu) {
  ChaosConfig cfg;
  cfg.base.horizon = 50.0;
  cfg.storms.flap_rate = 0.1;  // storms only
  const ChaosPlanner planner(cfg);
  const FaultPlan plan = planner.plan(3);
  ASSERT_FALSE(plan.empty());
  for (const FaultEvent& e : plan) {
    ASSERT_EQ(e.kind, FaultKind::kRsuOutage);
    EXPECT_TRUE(e.rsu.valid());  // explicit victim, not "pick random"
    EXPECT_GT(e.repair_after, 0.0);
  }
}

TEST(ChaosPlanner, AttackStormShapes) {
  const ChaosPlanner planner(attack_storm_config());
  bool saw_sybil = false, saw_revoke_pair = false, saw_replay = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const FaultPlan plan = planner.plan(seed);
    for (const FaultEvent& e : plan) {
      switch (e.kind) {
        case FaultKind::kSybilJoin:
          // Fabricated joins fire inside a same-group blackout window.
          EXPECT_NE(e.attack_tag, 0u);
          ASSERT_NE(e.group, 0u);
          {
            bool covered = false;
            for (const FaultEvent& other : plan) {
              if (other.kind == FaultKind::kRadioBlackout &&
                  other.group == e.group) {
                covered |= e.at >= other.at &&
                           e.at <= other.at + other.duration;
              }
            }
            EXPECT_TRUE(covered) << "sybil join outside its blackout";
            saw_sybil = true;
          }
          break;
        case FaultKind::kRevokeIdentity: {
          // Every revoke has exactly one later same-group CRL delivery.
          ASSERT_NE(e.group, 0u);
          std::size_t deliveries = 0;
          for (const FaultEvent& other : plan) {
            if (other.kind == FaultKind::kCrlDeliver &&
                other.group == e.group) {
              ++deliveries;
              EXPECT_GT(other.at, e.at);
              EXPECT_GT(other.crl_horizon_after, 0.0);
            }
          }
          EXPECT_EQ(deliveries, 1u);
          saw_revoke_pair = deliveries == 1;
          break;
        }
        case FaultKind::kReplayInject:
          EXPECT_NE(e.group, 0u);
          EXPECT_NE(e.attack_tag, 0u);
          EXPECT_GT(e.replay_age, 0.0);
          saw_replay = true;
          break;
        default: break;
      }
    }
  }
  EXPECT_TRUE(saw_sybil);
  EXPECT_TRUE(saw_revoke_pair);
  EXPECT_TRUE(saw_replay);
}

TEST(ChaosPlanner, AttackStormsAreDeterministicAndIndependent) {
  const ChaosPlanner planner(attack_storm_config());
  EXPECT_TRUE(plans_equal(planner.plan(9), planner.plan(9)));

  // Fork independence: enabling attack storms must not reshuffle the
  // benign storms' schedules (they draw from their own streams).
  ChaosConfig benign = storm_config();
  ChaosConfig with_attacks = storm_config();
  with_attacks.storms.sybil_rate = 0.05;
  with_attacks.storms.revoke_rate = 0.05;
  with_attacks.storms.replay_rate = 0.05;
  const FaultPlan before = ChaosPlanner(benign).plan(21);
  FaultPlan after = ChaosPlanner(with_attacks).plan(21);
  after.erase(std::remove_if(after.begin(), after.end(),
                             [](const FaultEvent& e) {
                               return e.group != 0;
                             }),
              after.end());
  EXPECT_TRUE(plans_equal(before, after))
      << "attack storms reshuffled the benign schedule";
}

TEST(ChaosValidation, RejectsBadConfigs) {
  // Base-config problems surface through the chaos validator too.
  ChaosConfig negative = storm_config();
  negative.base.vehicle_crash_rate = -1.0;
  EXPECT_FALSE(validate(negative).empty());

  ChaosConfig inverted = storm_config();
  inverted.base.blackout_lo = {10, 10};
  inverted.base.blackout_hi = {0, 0};
  EXPECT_FALSE(validate(inverted).empty());

  // Cascades draw blackout centers even when base blackouts are off.
  ChaosConfig no_box;
  no_box.base.horizon = 10.0;
  no_box.storms.cascade_rate = 0.1;
  EXPECT_FALSE(validate(no_box).empty());

  ChaosConfig negative_storm = storm_config();
  negative_storm.storms.burst_rate = -0.1;
  EXPECT_FALSE(validate(negative_storm).empty());

  EXPECT_TRUE(validate(storm_config()).empty());
  EXPECT_THROW(ChaosPlanner{negative}, std::invalid_argument);

  // Attack-storm problems surface too.
  ChaosConfig sybil_no_box;
  sybil_no_box.base.horizon = 10.0;
  sybil_no_box.storms.sybil_rate = 0.1;  // blackout box required
  EXPECT_FALSE(validate(sybil_no_box).empty());

  ChaosConfig zero_replays = attack_storm_config();
  zero_replays.storms.replay_count = 0;
  EXPECT_FALSE(validate(zero_replays).empty());

  ChaosConfig stale_window = attack_storm_config();
  stale_window.storms.replay_window = 0.0;
  EXPECT_FALSE(validate(stale_window).empty());

  ChaosConfig negative_horizon = attack_storm_config();
  negative_horizon.storms.revoke_crl_horizon = -1.0;
  EXPECT_FALSE(validate(negative_horizon).empty());

  EXPECT_TRUE(validate(attack_storm_config()).empty());
}

TEST(FaultPlanValidation, RejectsBadConfigs) {
  FaultPlanConfig cfg;
  cfg.vehicle_crash_rate = -0.5;
  EXPECT_FALSE(validate(cfg).empty());
  Rng rng(1);
  EXPECT_THROW(make_fault_plan(cfg, rng), std::invalid_argument);

  // blackout_rate > 0 with the box left at its all-zero default would pile
  // every blackout onto the origin: a config error, not a schedule.
  FaultPlanConfig default_box;
  default_box.blackout_rate = 0.1;
  EXPECT_FALSE(validate(default_box).empty());

  FaultPlanConfig ok;
  ok.blackout_rate = 0.1;
  ok.blackout_lo = {0, 0};
  ok.blackout_hi = {100, 100};
  EXPECT_TRUE(validate(ok).empty());
}

TEST(FaultPlanJsonl, RoundTripsPlanAndMeta) {
  const ChaosPlanner planner(storm_config());
  const FaultPlan plan = planner.plan(11);
  ASSERT_FALSE(plan.empty());
  FaultPlanMeta meta;
  meta.seed = 11;
  meta.set("vehicles", 40.0);
  meta.set("intensity", 1.5);

  std::stringstream ss;
  write_fault_plan_jsonl(plan, meta, ss);

  FaultPlan parsed;
  FaultPlanMeta parsed_meta;
  std::string error;
  ASSERT_TRUE(parse_fault_plan_jsonl(ss, parsed, parsed_meta, &error)) << error;
  EXPECT_TRUE(plans_equal(plan, parsed));
  EXPECT_EQ(parsed_meta.seed, 11u);
  EXPECT_DOUBLE_EQ(parsed_meta.get("vehicles", 0.0), 40.0);
  EXPECT_DOUBLE_EQ(parsed_meta.get("intensity", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(parsed_meta.get("absent", -1.0), -1.0);

  // Seeds are read from the raw token: 2^53 + 1 has no double.
  meta.seed = (std::uint64_t{1} << 53) + 1;
  std::stringstream big;
  write_fault_plan_jsonl(plan, meta, big);
  ASSERT_TRUE(parse_fault_plan_jsonl(big, parsed, parsed_meta, &error))
      << error;
  EXPECT_EQ(parsed_meta.seed, meta.seed);
}

TEST(FaultPlanJsonl, RoundTripsAttackEventsAndGroups) {
  const ChaosPlanner planner(attack_storm_config());
  FaultPlan plan;
  for (std::uint64_t seed = 1; plan.empty() && seed <= 16; ++seed) {
    plan = planner.plan(seed);
  }
  ASSERT_FALSE(plan.empty());
  bool any_group = false;
  for (const FaultEvent& e : plan) any_group |= e.group != 0;
  ASSERT_TRUE(any_group);

  std::stringstream ss;
  write_fault_plan_jsonl(plan, FaultPlanMeta{}, ss);
  FaultPlan parsed;
  FaultPlanMeta meta;
  std::string error;
  ASSERT_TRUE(parse_fault_plan_jsonl(ss, parsed, meta, &error)) << error;
  EXPECT_TRUE(plans_equal(plan, parsed));
}

TEST(FaultPlanJsonl, RejectsGarbage) {
  std::stringstream ss("not json at all\n");
  FaultPlan plan;
  FaultPlanMeta meta;
  std::string error;
  EXPECT_FALSE(parse_fault_plan_jsonl(ss, plan, meta, &error));
  EXPECT_FALSE(error.empty());
}

FaultPlan synthetic_plan(std::size_t n) {
  FaultPlan plan;
  for (std::size_t i = 0; i < n; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kVehicleCrash;
    e.at = static_cast<SimTime>(i);
    e.vehicle = VehicleId{i};
    plan.push_back(e);
  }
  return plan;
}

TEST(Shrinker, FindsMinimalSubsetAndIsOneMinimal) {
  // Failure = plan still contains victims 3 AND 17; everything else is
  // noise the shrinker must strip.
  const auto still_fails = [](const FaultPlan& plan) {
    bool has3 = false, has17 = false;
    for (const FaultEvent& e : plan) {
      has3 |= e.vehicle == VehicleId{3};
      has17 |= e.vehicle == VehicleId{17};
    }
    return has3 && has17;
  };
  const FaultPlan minimal = shrink_fault_plan(synthetic_plan(40), still_fails);
  ASSERT_EQ(minimal.size(), 2u);
  EXPECT_EQ(minimal[0].vehicle, VehicleId{3});
  EXPECT_EQ(minimal[1].vehicle, VehicleId{17});  // order preserved
  EXPECT_TRUE(still_fails(minimal));
  // 1-minimal: dropping any single remaining event clears the failure.
  for (std::size_t i = 0; i < minimal.size(); ++i) {
    FaultPlan without = minimal;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(still_fails(without));
  }
}

TEST(Shrinker, AlwaysFailingPredicateShrinksToEmpty) {
  const FaultPlan minimal = shrink_fault_plan(
      synthetic_plan(10), [](const FaultPlan&) { return true; });
  EXPECT_TRUE(minimal.empty());
}

TEST(Shrinker, GroupedEventsShrinkAtomically) {
  // 30 noise events plus a causal pair (revoke at index ~10, delivery at
  // ~25) sharing group 7. Failure requires BOTH halves of the pair — the
  // chunking must never strip one without the other, and the minimal plan
  // is exactly the pair, interleaving order preserved.
  FaultPlan plan = synthetic_plan(30);
  FaultEvent revoke;
  revoke.kind = FaultKind::kRevokeIdentity;
  revoke.at = 10.5;
  revoke.group = 7;
  FaultEvent deliver;
  deliver.kind = FaultKind::kCrlDeliver;
  deliver.at = 25.5;
  deliver.crl_horizon_after = 4.0;
  deliver.group = 7;
  plan.insert(plan.begin() + 11, revoke);
  plan.insert(plan.begin() + 26, deliver);

  std::size_t half_pair_seen = 0;
  const auto still_fails = [&](const FaultPlan& candidate) {
    bool has_revoke = false, has_deliver = false;
    for (const FaultEvent& e : candidate) {
      has_revoke |= e.kind == FaultKind::kRevokeIdentity;
      has_deliver |= e.kind == FaultKind::kCrlDeliver;
    }
    if (has_revoke != has_deliver) ++half_pair_seen;
    return has_revoke && has_deliver;
  };
  const FaultPlan minimal = shrink_fault_plan(plan, still_fails);
  ASSERT_EQ(minimal.size(), 2u);
  EXPECT_EQ(minimal[0].kind, FaultKind::kRevokeIdentity);
  EXPECT_EQ(minimal[1].kind, FaultKind::kCrlDeliver);
  EXPECT_EQ(minimal[1].crl_horizon_after, 4.0);
  // The shrinker never even PROPOSED a candidate holding half the pair.
  EXPECT_EQ(half_pair_seen, 0u);
}

TEST(Shrinker, DistinctGroupsShrinkIndependently) {
  // Two causal pairs; only group 1 matters. Group 2 must be stripped whole.
  FaultPlan plan;
  for (std::uint64_t g = 1; g <= 2; ++g) {
    FaultEvent revoke;
    revoke.kind = FaultKind::kRevokeIdentity;
    revoke.at = static_cast<SimTime>(g);
    revoke.group = g;
    FaultEvent deliver;
    deliver.kind = FaultKind::kCrlDeliver;
    deliver.at = static_cast<SimTime>(g) + 10.0;
    deliver.group = g;
    plan.push_back(revoke);
    plan.push_back(deliver);
  }
  sort_fault_plan(plan);
  const FaultPlan minimal = shrink_fault_plan(plan, [](const FaultPlan& p) {
    for (const FaultEvent& e : p) {
      if (e.group == 1 && e.kind == FaultKind::kCrlDeliver) return true;
    }
    return false;
  });
  ASSERT_EQ(minimal.size(), 2u);
  EXPECT_EQ(minimal[0].group, 1u);
  EXPECT_EQ(minimal[1].group, 1u);
}

}  // namespace
}  // namespace vcl::fault

namespace vcl::core {
namespace {

ChaosScenarioConfig short_episode() {
  ChaosScenarioConfig cfg;
  cfg.seed = 5;
  cfg.vehicles = 20;
  cfg.duration = 40.0;
  cfg.drain = 20.0;
  return cfg;
}

TEST(ChaosEpisode, CleanRunHasNoViolationsAndMakesProgress) {
  const ChaosEpisode episode = run_chaos_episode(short_episode());
  EXPECT_TRUE(episode.ok()) << (episode.violations.empty()
                                    ? "?"
                                    : episode.violations[0].to_string());
  EXPECT_GT(episode.checks_run, 0u);
  EXPECT_GT(episode.submitted, 0u);
  EXPECT_GT(episode.completed, 0u);
  EXPECT_GT(episode.plan.size(), 0u);
}

TEST(ChaosEpisode, DeterministicPerConfig) {
  const ChaosEpisode a = run_chaos_episode(short_episode());
  const ChaosEpisode b = run_chaos_episode(short_episode());
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.checks_run, b.checks_run);
  EXPECT_EQ(a.plan.size(), b.plan.size());
}

TEST(ChaosEpisode, ReproFileRoundTrips) {
  ChaosScenarioConfig cfg = short_episode();
  cfg.intensity = 1.5;
  cfg.storms = false;
  const fault::ChaosPlanner planner(chaos_config_for(cfg));
  const fault::FaultPlan plan = planner.plan(cfg.seed);

  std::stringstream ss;
  write_chaos_repro(cfg, plan, ss);
  ChaosScenarioConfig loaded;
  fault::FaultPlan loaded_plan;
  std::string error;
  ASSERT_TRUE(load_chaos_repro(ss, loaded, loaded_plan, &error)) << error;
  EXPECT_EQ(loaded.seed, cfg.seed);
  EXPECT_EQ(loaded.vehicles, cfg.vehicles);
  EXPECT_DOUBLE_EQ(loaded.duration, cfg.duration);
  EXPECT_DOUBLE_EQ(loaded.intensity, cfg.intensity);
  EXPECT_FALSE(loaded.storms);
  EXPECT_EQ(loaded_plan.size(), plan.size());

  // A replay must run the seed that was written, even one past 2^53.
  cfg.seed = (std::uint64_t{1} << 53) + 1;
  std::stringstream big;
  write_chaos_repro(cfg, plan, big);
  ASSERT_TRUE(load_chaos_repro(big, loaded, loaded_plan, &error)) << error;
  EXPECT_EQ(loaded.seed, cfg.seed);
}

// Adversary scenario knobs ride in the repro meta record too: one file
// re-creates the exact failing adversarial episode, bug arming included.
TEST(ChaosEpisode, ReproFileRoundTripsAdversaryKnobs) {
  ChaosScenarioConfig cfg = short_episode();
  cfg.adversary = true;
  cfg.inject_revoked_bug = true;
  const fault::ChaosPlanner planner(chaos_config_for(cfg));
  const fault::FaultPlan plan = planner.plan(cfg.seed);

  std::stringstream ss;
  write_chaos_repro(cfg, plan, ss);
  ChaosScenarioConfig loaded;
  fault::FaultPlan loaded_plan;
  std::string error;
  ASSERT_TRUE(load_chaos_repro(ss, loaded, loaded_plan, &error)) << error;
  EXPECT_TRUE(loaded.adversary);
  EXPECT_TRUE(loaded.inject_revoked_bug);
  EXPECT_EQ(loaded_plan.size(), plan.size());
}

// The end-to-end demo the chaos engine exists for: arm the deliberate
// lost-task bug (crash recovery "forgets" to requeue), let the oracle catch
// it mid-soak, then shrink the fault schedule to a minimal repro.
TEST(ChaosEpisode, SeededBugIsCaughtAndShrinksSmall) {
  ChaosScenarioConfig cfg = short_episode();
  cfg.inject_requeue_bug = true;
  // Find a failing seed quickly (the bug needs one vehicle crash while a
  // task is running; nearly every seed qualifies).
  ChaosEpisode bad;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 10 && !found; ++seed) {
    cfg.seed = seed;
    bad = run_chaos_episode(cfg);
    found = !bad.ok();
  }
  ASSERT_TRUE(found) << "seeded bug never tripped the oracle";
  ASSERT_FALSE(bad.violations.empty());
  // The violation record carries the replay context.
  EXPECT_EQ(bad.violations[0].seed, cfg.seed);
  EXPECT_FALSE(bad.violations[0].invariant.empty());

  const fault::FaultPlan minimal = fault::shrink_fault_plan(
      bad.plan, [&](const fault::FaultPlan& candidate) {
        return !run_chaos_episode(cfg, candidate).ok();
      });
  EXPECT_LE(minimal.size(), 5u);
  EXPECT_GE(minimal.size(), 1u);
  EXPECT_FALSE(run_chaos_episode(cfg, minimal).ok());
}

// Adversarial episode: the §IV attack storms run against the defended
// admission path with the auth invariants armed — and stay clean, with
// every attack shape actually exercised somewhere across a few seeds.
TEST(ChaosEpisode, AdversaryDefendedRunsClean) {
  ChaosScenarioConfig cfg = short_episode();
  cfg.adversary = true;
  cfg.duration = 60.0;
  std::size_t claims = 0, replays = 0, revocations = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    cfg.seed = seed;
    const ChaosEpisode episode = run_chaos_episode(cfg);
    EXPECT_TRUE(episode.ok()) << (episode.violations.empty()
                                      ? "?"
                                      : episode.violations[0].to_string());
    // Graceful degradation, not membership pollution: every fabricated
    // claim lands in quarantine under the strict policy.
    EXPECT_EQ(episode.sybil_admitted, 0u);
    EXPECT_EQ(episode.sybil_quarantined, episode.sybil_claims);
    // Storm replays are minted stale by construction: all rejected.
    EXPECT_EQ(episode.replays_rejected, episode.replays_seen);
    // Revoked members were evicted, and the work survived: progress holds.
    EXPECT_EQ(episode.revoked_evictions, episode.revocations);
    EXPECT_GT(episode.completed, 0u);
    claims += episode.sybil_claims;
    replays += episode.replays_seen;
    revocations += episode.revocations;
  }
  EXPECT_GT(claims, 0u);
  EXPECT_GT(replays, 0u);
  EXPECT_GT(revocations, 0u);
}

TEST(ChaosEpisode, AdversaryEpisodeIsDeterministic) {
  ChaosScenarioConfig cfg = short_episode();
  cfg.adversary = true;
  const ChaosEpisode a = run_chaos_episode(cfg);
  const ChaosEpisode b = run_chaos_episode(cfg);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.checks_run, b.checks_run);
  EXPECT_EQ(a.sybil_claims, b.sybil_claims);
  EXPECT_EQ(a.replays_seen, b.replays_seen);
  EXPECT_EQ(a.revocations, b.revocations);
  EXPECT_EQ(a.plan.size(), b.plan.size());
}

// The adversary toggle preserves the inertness contract: an episode with
// adversary OFF produces exactly the same outcome as before the adversary
// subsystem existed (same plan, same counters, byte-identical behavior).
TEST(ChaosEpisode, DisabledAdversaryDoesNotPerturbEpisodes) {
  const ChaosScenarioConfig cfg = short_episode();
  const ChaosEpisode off = run_chaos_episode(cfg);
  EXPECT_EQ(off.sybil_claims, 0u);
  EXPECT_EQ(off.replays_seen, 0u);
  EXPECT_EQ(off.revocations, 0u);
  // No attack kinds in a benign plan, and no groups either (ungrouped
  // plans keep the pre-adversary serialization byte for byte).
  for (const fault::FaultEvent& e : off.plan) {
    EXPECT_EQ(e.group, 0u);
    EXPECT_EQ(e.attack_tag, 0u);
  }
}

// The end-to-end §IV demo: arm the deliberate dropped-requeue bug in the
// revocation eviction sweep, let the oracle catch the stranded task, then
// shrink — the minimal plan keeps the revoke/deliver pair intact.
TEST(ChaosEpisode, SeededRevokedBugIsCaughtAndShrinksToCausalPair) {
  ChaosScenarioConfig cfg = short_episode();
  cfg.adversary = true;
  cfg.inject_revoked_bug = true;
  ChaosEpisode bad;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 10 && !found; ++seed) {
    cfg.seed = seed;
    bad = run_chaos_episode(cfg);
    found = !bad.ok();
  }
  ASSERT_TRUE(found) << "seeded revocation bug never tripped the oracle";
  ASSERT_FALSE(bad.violations.empty());
  EXPECT_EQ(bad.violations[0].seed, cfg.seed);

  const fault::FaultPlan minimal = fault::shrink_fault_plan(
      bad.plan, [&](const fault::FaultPlan& candidate) {
        return !run_chaos_episode(cfg, candidate).ok();
      });
  ASSERT_GE(minimal.size(), 2u);
  EXPECT_LE(minimal.size(), 6u);
  // The causal pair survived shrinking together.
  bool has_revoke = false, has_deliver = false;
  for (const fault::FaultEvent& e : minimal) {
    has_revoke |= e.kind == fault::FaultKind::kRevokeIdentity;
    has_deliver |= e.kind == fault::FaultKind::kCrlDeliver;
  }
  EXPECT_TRUE(has_revoke);
  EXPECT_TRUE(has_deliver);
  EXPECT_FALSE(run_chaos_episode(cfg, minimal).ok());

  // Same schedule, bug disarmed: clean — the defense, not the oracle, was
  // broken.
  cfg.inject_revoked_bug = false;
  EXPECT_TRUE(run_chaos_episode(cfg, minimal).ok());
}

// Same schedule, bug disarmed: the oracle runs the whole episode clean —
// the checker itself does not misfire on healthy recovery paths.
TEST(ChaosEpisode, OracleStaysQuietWithBugDisarmed) {
  ChaosScenarioConfig cfg = short_episode();
  cfg.inject_requeue_bug = true;
  cfg.seed = 1;
  ChaosEpisode bad = run_chaos_episode(cfg);
  cfg.inject_requeue_bug = false;
  const ChaosEpisode good = run_chaos_episode(cfg, bad.plan);
  EXPECT_TRUE(good.ok()) << (good.violations.empty()
                                 ? "?"
                                 : good.violations[0].to_string());
  EXPECT_GT(good.checks_run, 0u);
}

}  // namespace
}  // namespace vcl::core
