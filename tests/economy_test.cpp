// Tests for data-dissemination scheduling (Wu et al. [42]) and the
// credit-incentive ledger (Kong et al. [17]).
#include <gtest/gtest.h>

#include "net/dissemination.h"
#include "vcloud/cloud.h"
#include "vcloud/incentive.h"

namespace vcl {
namespace {

// ---- Dissemination scheduling -------------------------------------------------

TEST(Dissemination, FifoServesOldestFirst) {
  net::DisseminationScheduler sched(net::DisseminationPolicy::kFifo);
  sched.request(VehicleId{1}, FileId{10}, 0.0);
  sched.request(VehicleId{2}, FileId{20}, 1.0);
  EXPECT_EQ(sched.serve_slot(2.0), FileId{10});
  EXPECT_EQ(sched.serve_slot(3.0), FileId{20});
  EXPECT_FALSE(sched.serve_slot(4.0).valid());  // idle
  EXPECT_EQ(sched.served_requests(), 2u);
}

TEST(Dissemination, BroadcastSatisfiesAllRequesters) {
  net::DisseminationScheduler sched(net::DisseminationPolicy::kFifo);
  for (std::uint64_t v = 1; v <= 5; ++v) {
    sched.request(VehicleId{v}, FileId{10}, 0.0);
  }
  EXPECT_EQ(sched.serve_slot(1.0), FileId{10});
  EXPECT_EQ(sched.served_requests(), 5u);  // one slot, five happy requesters
  EXPECT_FALSE(sched.serve_slot(2.0).valid());  // nothing left pending
}

TEST(Dissemination, MostRequestedMaximizesPerSlot) {
  net::DisseminationScheduler sched(
      net::DisseminationPolicy::kMostRequested);
  sched.request(VehicleId{1}, FileId{10}, 0.0);  // older but lone request
  for (std::uint64_t v = 2; v <= 4; ++v) {
    sched.request(VehicleId{v}, FileId{20}, 1.0);
  }
  EXPECT_EQ(sched.serve_slot(2.0), FileId{20});  // popularity beats age
}

TEST(Dissemination, MostRequestedStarvesUnpopularItems) {
  net::DisseminationScheduler greedy(
      net::DisseminationPolicy::kMostRequested);
  net::DisseminationScheduler fair(net::DisseminationPolicy::kDeficitFair);
  // One unpopular item requested at t=0; a popular item keeps arriving.
  for (auto* s : {&greedy, &fair}) {
    s->request(VehicleId{99}, FileId{1}, 0.0);
  }
  double now = 1.0;
  bool greedy_served_unpopular = false;
  bool fair_served_unpopular = false;
  for (int slot = 0; slot < 20; ++slot, now += 1.0) {
    for (auto* s : {&greedy, &fair}) {
      s->request(VehicleId{static_cast<std::uint64_t>(slot * 2)}, FileId{2},
                 now);
      s->request(VehicleId{static_cast<std::uint64_t>(slot * 2 + 1)},
                 FileId{2}, now);
    }
    if (greedy.serve_slot(now) == FileId{1}) greedy_served_unpopular = true;
    if (fair.serve_slot(now) == FileId{1}) fair_served_unpopular = true;
  }
  EXPECT_FALSE(greedy_served_unpopular);  // starved for all 20 slots
  EXPECT_TRUE(fair_served_unpopular);     // deficit credit forces service
}

TEST(Dissemination, FairnessIndexOrdersPolicies) {
  auto run = [](net::DisseminationPolicy policy) {
    net::DisseminationScheduler sched(policy);
    Rng rng(5);
    double now = 0.0;
    // Zipf-ish demand over 8 items: item i requested with weight 1/(i+1).
    for (int slot = 0; slot < 200; ++slot, now += 1.0) {
      for (int r = 0; r < 3; ++r) {
        double total = 0;
        for (int i = 0; i < 8; ++i) total += 1.0 / (i + 1);
        double x = rng.uniform(0, total);
        std::uint64_t item = 0;
        for (int i = 0; i < 8; ++i) {
          x -= 1.0 / (i + 1);
          if (x <= 0) {
            item = static_cast<std::uint64_t>(i + 1);
            break;
          }
        }
        sched.request(VehicleId{static_cast<std::uint64_t>(slot * 3 + r)},
                      FileId{item}, now);
      }
      sched.serve_slot(now);
    }
    return sched.jain_fairness();
  };
  const double fair = run(net::DisseminationPolicy::kDeficitFair);
  const double greedy = run(net::DisseminationPolicy::kMostRequested);
  EXPECT_GT(fair, greedy);
  EXPECT_GT(fair, 0.5);
}

TEST(Dissemination, PolicyNames) {
  EXPECT_STREQ(to_string(net::DisseminationPolicy::kDeficitFair),
               "deficit_fair");
}

// ---- Incentive ledger -----------------------------------------------------------

TEST(Incentive, InitialBalanceAndCharge) {
  vcloud::IncentiveLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.balance(1), 50.0);
  EXPECT_TRUE(ledger.charge(1, 20.0));
  EXPECT_DOUBLE_EQ(ledger.balance(1), 30.0);
}

TEST(Incentive, FreeRiderGetsThrottled) {
  vcloud::IncentiveLedger ledger;
  EXPECT_TRUE(ledger.charge(1, 50.0));  // spends everything
  EXPECT_FALSE(ledger.charge(1, 1.0));
  EXPECT_EQ(ledger.throttled(), 1u);
  EXPECT_DOUBLE_EQ(ledger.balance(1), 0.0);  // failed charge takes nothing
}

TEST(Incentive, LendingRestoresSpendingPower) {
  vcloud::IncentiveLedger ledger;
  ASSERT_TRUE(ledger.charge(1, 50.0));
  ledger.reward(1, 30.0);  // earns 24 at the 0.8 spread
  EXPECT_DOUBLE_EQ(ledger.balance(1), 24.0);
  EXPECT_TRUE(ledger.charge(1, 24.0));
}

// Ledger wired into a live cloud through the completion hook.
TEST(Incentive, CloudCompletionRewardsWorkers) {
  const auto road = geo::make_manhattan_grid(2, 2, 200.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(road, Rng(1));
  net::Network net(sim, traffic, Rng(2));
  for (int i = 0; i < 3; ++i) traffic.spawn_parked(LinkId{0}, 20.0 * i);
  net.refresh();
  vcloud::VehicularCloud cloud(
      CloudId{1}, net, vcloud::stationary_membership(traffic, {20, 0}, 400.0),
      vcloud::fixed_region({20, 0}, 400.0),
      std::make_unique<vcloud::GreedyResourceScheduler>(),
      vcloud::CloudConfig{}, Rng(3));
  cloud.refresh();

  vcloud::IncentiveLedger ledger;
  cloud.set_terminal_hook([&](const vcloud::Task& t, SimTime) {
    if (t.state == vcloud::TaskState::kCompleted) {
      ledger.reward(t.worker.value(), t.work);
    }
  });
  const std::uint64_t requester = 9999;
  vcloud::Task t;
  t.work = 10.0;
  ASSERT_TRUE(ledger.charge(requester, t.work));
  cloud.submit(std::move(t));
  sim.run_until(60.0);
  ASSERT_EQ(cloud.stats().completed, 1u);
  // Exactly one worker earned 8 credits on top of its initial 50.
  std::size_t earners = 0;
  for (const auto& [vid, v] : traffic.vehicles()) {
    if (ledger.balance(vid) > 50.0) {
      ++earners;
      EXPECT_DOUBLE_EQ(ledger.balance(vid), 58.0);
    }
  }
  EXPECT_EQ(earners, 1u);
  EXPECT_DOUBLE_EQ(ledger.balance(requester), 40.0);
}

}  // namespace
}  // namespace vcl
