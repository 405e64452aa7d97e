// Cross-module property tests: invariants that must hold for ANY input,
// swept over randomized instances (parameterized by seed).
#include <gtest/gtest.h>

#include <map>

#include "access/policy.h"
#include "core/scenario.h"
#include "net/channel.h"
#include "vcloud/cloud.h"

namespace vcl {
namespace {

// ---- Channel monotonicity -------------------------------------------------------

class ChannelProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChannelProperty, ProbabilityMonotoneInDistanceAndDensity) {
  const auto density = static_cast<std::size_t>(GetParam());
  const net::Channel ch;
  double prev = 1.1;
  for (double d = 0; d <= 320; d += 5) {
    const double p = ch.reception_probability({0, 0}, {d, 0}, density);
    EXPECT_LE(p, prev + 1e-12) << "distance " << d;
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    // Higher density never helps.
    EXPECT_LE(ch.reception_probability({0, 0}, {d, 0}, density + 10),
              p + 1e-12);
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, ChannelProperty,
                         ::testing::Values(0, 5, 20, 80));

// ---- Random policy round-trip -----------------------------------------------------

std::unique_ptr<access::Policy> random_policy(Rng& rng, int depth) {
  const std::vector<std::string> attrs = {"a", "b", "c", "d", "e"};
  std::function<std::string(int)> gen = [&](int d) -> std::string {
    if (d <= 0 || rng.bernoulli(0.4)) {
      return attrs[rng.index(attrs.size())];
    }
    const int kind = static_cast<int>(rng.uniform_int(0, 2));
    const int n = static_cast<int>(rng.uniform_int(2, 4));
    std::vector<std::string> children;
    for (int i = 0; i < n; ++i) children.push_back(gen(d - 1));
    std::string out;
    if (kind == 0) {  // AND
      out = "(" + children[0];
      for (int i = 1; i < n; ++i) out += " & " + children[static_cast<std::size_t>(i)];
      out += ")";
    } else if (kind == 1) {  // OR
      out = "(" + children[0];
      for (int i = 1; i < n; ++i) out += " | " + children[static_cast<std::size_t>(i)];
      out += ")";
    } else {  // threshold
      const int k = static_cast<int>(rng.uniform_int(1, n));
      out = std::to_string(k) + "of(" + children[0];
      for (int i = 1; i < n; ++i) out += ", " + children[static_cast<std::size_t>(i)];
      out += ")";
    }
    return out;
  };
  const std::string text = gen(depth);
  auto parsed = access::Policy::parse(text);
  if (!parsed) return nullptr;
  return std::make_unique<access::Policy>(std::move(*parsed));
}

class PolicyProperty : public ::testing::TestWithParam<int> {};

TEST_P(PolicyProperty, ToStringRoundTripPreservesSemantics) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    auto policy = random_policy(rng, 3);
    ASSERT_NE(policy, nullptr);
    const auto reparsed = access::Policy::parse(policy->to_string());
    ASSERT_TRUE(reparsed.has_value()) << policy->to_string();
    // Same satisfaction on all 32 subsets of {a..e}.
    const std::vector<std::string> attrs = {"a", "b", "c", "d", "e"};
    for (unsigned mask = 0; mask < 32; ++mask) {
      access::AttributeSet set;
      for (unsigned bit = 0; bit < 5; ++bit) {
        if (mask & (1u << bit)) set.add(attrs[bit]);
      }
      EXPECT_EQ(policy->satisfied(set), reparsed->satisfied(set))
          << policy->to_string() << " mask=" << mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyProperty, ::testing::Range(1, 5));

// Monotonicity: adding attributes can never un-satisfy a policy (no
// negations in the language).
TEST(PolicyProperty2, SatisfactionIsMonotone) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    auto policy = random_policy(rng, 3);
    ASSERT_NE(policy, nullptr);
    const std::vector<std::string> attrs = {"a", "b", "c", "d", "e"};
    for (unsigned mask = 0; mask < 32; ++mask) {
      access::AttributeSet set;
      for (unsigned bit = 0; bit < 5; ++bit) {
        if (mask & (1u << bit)) set.add(attrs[bit]);
      }
      if (!policy->satisfied(set)) continue;
      // Any superset stays satisfied.
      access::AttributeSet superset = set;
      superset.add(attrs[rng.index(attrs.size())]);
      EXPECT_TRUE(policy->satisfied(superset)) << policy->to_string();
    }
  }
}

// ---- Event-queue ordering under random operations ----------------------------------

class SimulatorProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorProperty, EventsAlwaysFireInNondecreasingTime) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  sim::Simulator sim;
  std::vector<double> fired;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 200; ++i) {
    const double at = rng.uniform(0, 100);
    handles.push_back(
        sim.schedule_at(at, [&fired, &sim] { fired.push_back(sim.now()); }));
  }
  // Cancel a random third.
  for (std::size_t i = 0; i < handles.size(); i += 3) sim.cancel(handles[i]);
  sim.run_until(200.0);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(fired.size(), 200u - 67u);  // 67 cancelled (indices 0,3,...,198)
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorProperty, ::testing::Range(1, 5));

// ---- Mobility: route consistency over long runs -----------------------------------

class MobilityProperty : public ::testing::TestWithParam<int> {};

TEST_P(MobilityProperty, VehiclesStayOnTheirRoutes) {
  core::ScenarioConfig cfg;
  cfg.vehicles = 40;
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  core::Scenario scenario(cfg);
  scenario.start();
  for (int step = 0; step < 30; ++step) {
    scenario.run_for(2.0);
    for (const auto& [vid, v] : scenario.traffic().vehicles()) {
      if (v.parked) continue;
      ASSERT_LT(v.route_index, v.route.size());
      EXPECT_EQ(v.link, v.route[v.route_index]);
      EXPECT_GE(v.offset, 0.0);
      EXPECT_LE(v.offset,
                scenario.road().link(v.link).length + 1e-6);
      EXPECT_GE(v.speed, 0.0);
      // Consecutive route links are connected.
      if (v.route_index + 1 < v.route.size()) {
        EXPECT_EQ(scenario.road().link(v.link).to,
                  scenario.road().link(v.route[v.route_index + 1]).from);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MobilityProperty, ::testing::Range(1, 4));

// ---- Cloud accounting invariants ---------------------------------------------------

class CloudProperty : public ::testing::TestWithParam<int> {};

TEST_P(CloudProperty, TaskAccountingBalancesUnderChurn) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto road = geo::make_manhattan_grid(3, 3, 200.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(road, Rng(seed));
  net::Network net(sim, traffic, Rng(seed + 1));
  std::vector<VehicleId> members;
  for (int i = 0; i < 8; ++i) {
    members.push_back(traffic.spawn_parked(LinkId{0}, 15.0 * i));
  }
  net.refresh();
  vcloud::CloudConfig config;
  config.handover.enabled = (seed % 2) == 0;  // both recovery paths
  vcloud::VehicularCloud cloud(
      CloudId{1}, net, vcloud::stationary_membership(traffic, {60, 0}, 500.0),
      vcloud::fixed_region({60, 0}, 500.0),
      std::make_unique<vcloud::RandomScheduler>(), config, Rng(seed + 2));
  cloud.refresh();

  Rng rng(seed + 3);
  std::vector<TaskId> ids;
  // Random interleaving of submissions, time and churn.
  for (int round = 0; round < 40; ++round) {
    if (rng.bernoulli(0.7)) {
      vcloud::Task t;
      t.work = rng.uniform(1.0, 30.0);
      if (rng.bernoulli(0.3)) t.deadline = sim.now() + rng.uniform(5, 60);
      ids.push_back(cloud.submit(std::move(t)));
    }
    if (rng.bernoulli(0.2) && !members.empty()) {
      // Kill a random member (and respawn a new one to keep capacity).
      const std::size_t idx = rng.index(members.size());
      traffic.despawn(members[idx]);
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(idx));
      members.push_back(
          traffic.spawn_parked(LinkId{0}, rng.uniform(0.0, 150.0)));
      net.refresh();
    }
    sim.run_until(sim.now() + rng.uniform(0.5, 5.0));
    cloud.refresh();

    // INVARIANTS after every round:
    const auto& st = cloud.stats();
    std::size_t pending = 0, running = 0, migrating = 0, recovering = 0,
                completed = 0, failed = 0, expired = 0;
    std::map<std::uint64_t, int> worker_load;
    for (const TaskId id : ids) {
      const vcloud::Task* t = cloud.find_task(id);
      ASSERT_NE(t, nullptr);
      switch (t->state) {
        case vcloud::TaskState::kPending: ++pending; break;
        case vcloud::TaskState::kRunning:
          ++running;
          ++worker_load[t->worker.value()];
          break;
        case vcloud::TaskState::kMigrating: ++migrating; break;
        case vcloud::TaskState::kCrashRecovering: ++recovering; break;
        case vcloud::TaskState::kCompleted: ++completed; break;
        case vcloud::TaskState::kFailed: ++failed; break;
        case vcloud::TaskState::kExpired: ++expired; break;
      }
      EXPECT_GE(t->progress, 0.0);
      EXPECT_LE(t->progress, t->work + 1e-9);
    }
    // One running task per worker, max.
    for (const auto& [worker, load] : worker_load) {
      EXPECT_LE(load, 1) << "worker " << worker << " double-booked";
    }
    // Stats agree with task states.
    EXPECT_EQ(st.submitted, ids.size());
    EXPECT_EQ(st.completed, completed);
    EXPECT_EQ(st.expired, expired);
    EXPECT_EQ(pending + running + migrating + recovering + completed + failed +
                  expired,
              ids.size());
  }
  // Eventually everything settles into a terminal state.
  const auto drained = [&] {
    const vcloud::CloudStats& st = cloud.stats();
    return st.completed + st.failed + st.expired == st.submitted;
  };
  for (int i = 0; i < 400; ++i) {
    sim.run_until(sim.now() + 5.0);
    cloud.refresh();
    if (drained()) break;
  }
  EXPECT_TRUE(drained());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CloudProperty, ::testing::Range(1, 7));

}  // namespace
}  // namespace vcl
