#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <set>
#include <string>

#include "cluster/moving_zone.h"
#include "core/system.h"
#include "vcloud/admission.h"
#include "vcloud/cloud.h"
#include "vcloud/invariant_oracle.h"
#include "vcloud/replication.h"

namespace vcl::vcloud {
namespace {

TEST(ResourceProfile, ScalesWithAutomation) {
  const auto lo = profile_for(mobility::AutomationLevel::kNoAutomation);
  const auto hi = profile_for(mobility::AutomationLevel::kFullAutomation);
  EXPECT_GT(hi.compute, lo.compute);
  EXPECT_GT(hi.storage_mb, lo.storage_mb);
  EXPECT_GT(hi.sensor_count, lo.sensor_count);
}

TEST(ResourcePool, Aggregates) {
  ResourcePool pool;
  pool.add(profile_for(mobility::AutomationLevel::kNoAutomation));
  pool.add(profile_for(mobility::AutomationLevel::kFullAutomation));
  EXPECT_EQ(pool.members, 2u);
  EXPECT_GT(pool.compute, 0.0);
}

TEST(Workload, GeneratesPositiveTasks) {
  WorkloadGenerator gen({}, Rng(1));
  for (const Task& t : gen.batch(10.0, 50)) {
    EXPECT_GT(t.work, 0.0);
    EXPECT_GT(t.input_mb, 0.0);
    EXPECT_EQ(t.created, 10.0);
    EXPECT_GT(t.deadline, 10.0);
  }
}

TEST(TaskStateLabels, CoversEveryState) {
  const TaskState all[] = {
      TaskState::kPending,   TaskState::kRunning,   TaskState::kMigrating,
      TaskState::kCrashRecovering, TaskState::kCompleted, TaskState::kFailed,
      TaskState::kExpired};
  std::set<std::string> seen;
  for (const TaskState s : all) {
    const std::string label = to_string(s);
    EXPECT_NE(label, "unknown");
    seen.insert(label);
  }
  EXPECT_EQ(seen.size(), std::size(all));  // every label is distinct
}

TEST(Handover, CheckpointGrowsWithProgress) {
  Task t;
  t.work = 100;
  t.progress = 0;
  const double empty = checkpoint_mb(t);
  t.progress = 50;
  EXPECT_GT(checkpoint_mb(t), empty);
}

TEST(Handover, EncryptionAddsLatency) {
  // Checkpoints are always sealed: the latency is the transfer plus the
  // KEM seal/unseal and one HMAC per MB.
  Task t;
  t.progress = 10;
  const ResourceProfile p;
  const double mb = checkpoint_mb(t);
  const double transfer = mb * 8.0 / std::max(p.bandwidth_mbps, 0.1);
  const double sealing = crypto::cost(crypto::Op::kKemEncap) +
                         crypto::cost(crypto::Op::kKemDecap) +
                         crypto::cost(crypto::Op::kHmac) * std::max(1.0, mb);
  EXPECT_GT(sealing, 0.0);
  EXPECT_DOUBLE_EQ(migration_latency(t, p, p), transfer + sealing);
}

TEST(Handover, ZeroProgressCheckpointIsBaseSize) {
  Task t;
  t.work = 100;
  t.progress = 0;
  EXPECT_DOUBLE_EQ(checkpoint_mb(t), 0.5);
}

TEST(Handover, MigrationLatencyMonotonicInProgress) {
  const ResourceProfile p;
  Task t;
  t.work = 100;
  double prev = -1.0;
  for (const double progress : {0.0, 10.0, 40.0, 90.0}) {
    t.progress = progress;
    const double lat = migration_latency(t, p, p);
    EXPECT_GT(lat, prev);
    prev = lat;
  }
}

TEST(Dependability, RetryBackoffGrowsAndStaysPositive) {
  RetryConfig cfg;
  cfg.ack_timeout = 0.5;
  cfg.backoff = 2.0;
  cfg.jitter = 0.25;
  Rng rng(7);
  double prev_hi = 0.0;
  for (int attempt = 1; attempt <= 5; ++attempt) {
    const double nominal = cfg.ack_timeout * std::pow(cfg.backoff, attempt - 1);
    for (int i = 0; i < 50; ++i) {
      const SimTime d = retry_backoff(cfg, attempt, rng);
      EXPECT_GT(d, 0.0);
      EXPECT_GE(d, nominal * (1.0 - cfg.jitter) - 1e-12);
      EXPECT_LE(d, nominal * (1.0 + cfg.jitter) + 1e-12);
    }
    EXPECT_GT(nominal * (1.0 - cfg.jitter), prev_hi / 4.0);  // keeps growing
    prev_hi = nominal * (1.0 + cfg.jitter);
  }
}

TEST(Dependability, DetectorSweepsOnlySilentWorkers) {
  FailureDetectorConfig cfg;  // beats every kHeartbeatPeriod = 1 s
  cfg.missed_beats_to_kill = 3;
  FailureDetector det(cfg);
  det.track(VehicleId{1}, 0.0);
  det.track(VehicleId{2}, 0.0);
  det.observe(VehicleId{1}, 2.5);  // v1 keeps beating, v2 goes silent
  EXPECT_TRUE(det.sweep(2.9).empty());  // nobody past k*period yet
  const auto dead = det.sweep(3.5);
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], VehicleId{2});
  det.forget(VehicleId{2});
  EXPECT_TRUE(det.sweep(3.5).empty());
  // reset_all grants a fresh grace window (new broker re-sync semantics).
  det.track(VehicleId{2}, 3.5);
  det.reset_all(100.0);
  EXPECT_TRUE(det.sweep(102.9).empty());
}

TEST(Dependability, RetryBackoffDeterministicAndBaseGrowsMonotonically) {
  RetryConfig cfg;
  cfg.ack_timeout = 0.5;
  cfg.backoff = 2.0;
  cfg.jitter = 0.5;
  // Same Rng state, same jittered delays — retries replay exactly.
  Rng a(99), b(99);
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_DOUBLE_EQ(retry_backoff(cfg, attempt, a),
                     retry_backoff(cfg, attempt, b));
  }
  // With jitter off, the base schedule is strictly exponential.
  cfg.jitter = 0.0;
  Rng rng(1);
  SimTime prev = 0.0;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const SimTime d = retry_backoff(cfg, attempt, rng);
    EXPECT_GT(d, prev);
    if (attempt > 1) {
      EXPECT_DOUBLE_EQ(d, prev * cfg.backoff);
    }
    prev = d;
  }
}

TEST(Dependability, DetectorForgetAndResetEdgeCases) {
  FailureDetectorConfig cfg;  // beats every kHeartbeatPeriod = 1 s
  cfg.missed_beats_to_kill = 3;
  FailureDetector det(cfg);
  // forget() of an id that was never tracked is a no-op.
  det.forget(VehicleId{7});
  EXPECT_EQ(det.tracked_count(), 0u);

  det.track(VehicleId{5}, 0.0);
  det.track(VehicleId{2}, 0.0);
  det.track(VehicleId{9}, 0.0);
  det.forget(VehicleId{7});  // still untracked: the others are untouched
  EXPECT_EQ(det.tracked_count(), 3u);
  const auto ids = det.tracked_ids();
  ASSERT_EQ(ids.size(), 3u);  // sorted, deterministic
  EXPECT_EQ(ids[0], VehicleId{2});
  EXPECT_EQ(ids[1], VehicleId{5});
  EXPECT_EQ(ids[2], VehicleId{9});

  // Broker change at t=9: only v5 has beaten recently. Without the fresh
  // grace window an immediate sweep would mass-kill v2 and v9.
  det.observe(VehicleId{5}, 8.5);
  det.reset_all(9.0);
  EXPECT_TRUE(det.sweep(9.1).empty());
  EXPECT_TRUE(det.sweep(11.9).empty());
  // The window is a grace period, not amnesty: staying silent past it still
  // gets a worker declared dead.
  const auto dead = det.sweep(12.5);
  ASSERT_EQ(dead.size(), 3u);
}

TEST(Schedulers, GreedyPicksFastestIdle) {
  GreedyResourceScheduler sched;
  Rng rng(1);
  std::vector<WorkerView> workers(3);
  workers[0].id = VehicleId{1};
  workers[0].profile.compute = 5;
  workers[1].id = VehicleId{2};
  workers[1].profile.compute = 9;
  workers[1].busy = true;  // fastest but busy
  workers[2].id = VehicleId{3};
  workers[2].profile.compute = 7;
  Task t;
  EXPECT_EQ(sched.pick(t, workers, rng), VehicleId{3});
}

TEST(Schedulers, DwellAwareAvoidsShortStayers) {
  DwellAwareScheduler sched;
  Rng rng(1);
  std::vector<WorkerView> workers(2);
  workers[0].id = VehicleId{1};
  workers[0].profile.compute = 10;  // fast...
  workers[0].dwell_seconds = 1.0;   // ...but leaving immediately
  workers[1].id = VehicleId{2};
  workers[1].profile.compute = 2;
  workers[1].dwell_seconds = 1000.0;
  Task t;
  t.work = 20;  // needs 2 s on fast, 10 s on slow
  EXPECT_EQ(sched.pick(t, workers, rng), VehicleId{2});
}

TEST(Schedulers, DwellAwareFallsBackToLongestStayer) {
  DwellAwareScheduler sched;
  Rng rng(1);
  std::vector<WorkerView> workers(2);
  workers[0].id = VehicleId{1};
  workers[0].dwell_seconds = 3.0;
  workers[0].profile.compute = 1;
  workers[1].id = VehicleId{2};
  workers[1].dwell_seconds = 5.0;
  workers[1].profile.compute = 1;
  Task t;
  t.work = 100;  // nobody can finish: prefer the longest stayer
  EXPECT_EQ(sched.pick(t, workers, rng), VehicleId{2});
}

TEST(Schedulers, NoIdleWorkerDefers) {
  RandomScheduler sched;
  Rng rng(1);
  std::vector<WorkerView> workers(1);
  workers[0].id = VehicleId{1};
  workers[0].busy = true;
  Task t;
  EXPECT_FALSE(sched.pick(t, workers, rng).valid());
}

TEST(Broker, ElectsCapableLongStayer) {
  BrokerElection broker;
  std::vector<WorkerView> members(2);
  members[0].id = VehicleId{1};
  members[0].profile.compute = 10;
  members[0].dwell_seconds = 2.0;  // capable but leaving
  members[1].id = VehicleId{2};
  members[1].profile.compute = 4;
  members[1].dwell_seconds = 200.0;
  EXPECT_EQ(broker.elect(members), VehicleId{2});
  EXPECT_EQ(broker.changes(), 0u);  // first election is free
}

TEST(Broker, HysteresisPreventsChurn) {
  BrokerElection broker;
  std::vector<WorkerView> members(2);
  members[0].id = VehicleId{1};
  members[0].profile.compute = 5;
  members[0].dwell_seconds = 100;
  members[1].id = VehicleId{2};
  members[1].profile.compute = 5.1;  // marginally better
  members[1].dwell_seconds = 100;
  broker.elect(members);
  const VehicleId first = broker.current();
  // Marginal difference: the incumbent must survive repeated elections.
  for (int i = 0; i < 5; ++i) broker.elect(members);
  EXPECT_EQ(broker.current(), first);
}

// ---- VehicularCloud end-to-end -------------------------------------------------

class CloudFixture : public ::testing::Test {
 protected:
  CloudFixture()
      : road_(geo::make_manhattan_grid(3, 3, 200.0)),
        traffic_(road_, Rng(1)),
        net_(sim_, traffic_, Rng(2)) {}

  // A stationary member cloud over parked vehicles.
  std::unique_ptr<VehicularCloud> make_stationary_cloud(
      int members, CloudConfig config = {},
      std::unique_ptr<Scheduler> sched = nullptr) {
    for (int i = 0; i < members; ++i) {
      traffic_.spawn_parked(LinkId{0}, 10.0 * i);
    }
    net_.refresh();
    auto cloud = std::make_unique<VehicularCloud>(
        CloudId{1}, net_, stationary_membership(traffic_, {100, 0}, 400.0),
        fixed_region({100, 0}, 400.0),
        sched != nullptr ? std::move(sched)
                         : std::make_unique<GreedyResourceScheduler>(),
        config, Rng(3));
    cloud->refresh();
    return cloud;
  }

  geo::RoadNetwork road_;
  sim::Simulator sim_;
  mobility::TrafficModel traffic_;
  net::Network net_;
};

TEST_F(CloudFixture, MembersJoin) {
  auto cloud = make_stationary_cloud(5);
  EXPECT_EQ(cloud->member_count(), 5u);
  EXPECT_TRUE(cloud->broker().valid());
  EXPECT_EQ(cloud->pool().members, 5u);
}

TEST_F(CloudFixture, TasksComplete) {
  auto cloud = make_stationary_cloud(4);
  Task t;
  t.work = 5.0;
  t.deadline = 0.0;
  const TaskId id = cloud->submit(t);
  sim_.run_until(60.0);
  const Task* done = cloud->find_task(id);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->state, TaskState::kCompleted);
  EXPECT_EQ(cloud->stats().completed, 1u);
  EXPECT_GT(done->completed_at, 0.0);
}

TEST_F(CloudFixture, ParallelTasksUseMultipleWorkers) {
  auto cloud = make_stationary_cloud(4);
  for (int i = 0; i < 4; ++i) {
    Task t;
    t.work = 10.0;
    cloud->submit(t);
  }
  sim_.run_until(300.0);
  const CloudStats& st = cloud->stats();
  EXPECT_EQ(st.completed, 4u);
  EXPECT_EQ(st.completed + st.failed + st.expired, st.submitted);  // drained
}

TEST_F(CloudFixture, QueueDrainsWhenWorkersFree) {
  auto cloud = make_stationary_cloud(1);
  for (int i = 0; i < 3; ++i) {
    Task t;
    t.work = 2.0;
    cloud->submit(t);
  }
  EXPECT_GE(cloud->pending_count(), 2u);  // one runs, rest queue
  sim_.run_until(60.0);
  cloud->refresh();
  sim_.run_until(120.0);
  EXPECT_EQ(cloud->stats().completed, 3u);
}

TEST_F(CloudFixture, DeadlineExpiry) {
  auto cloud = make_stationary_cloud(1);
  Task t;
  t.work = 1000.0;  // cannot finish in time
  t.deadline = 5.0;
  cloud->submit(t);
  // Refresh periodically so expiry is detected.
  for (double time = 1.0; time <= 20.0; time += 1.0) {
    sim_.run_until(time);
    cloud->refresh();
  }
  EXPECT_EQ(cloud->stats().expired, 1u);
}

TEST_F(CloudFixture, DepartureWithHandoverMigrates) {
  CloudConfig config;
  config.handover.enabled = true;
  auto cloud = make_stationary_cloud(3, config);
  Task t;
  t.work = 50.0;
  const TaskId id = cloud->submit(t);
  sim_.run_until(5.0);
  // Remove the worker running the task.
  const Task* running = cloud->find_task(id);
  ASSERT_NE(running, nullptr);
  ASSERT_EQ(running->state, TaskState::kRunning);
  traffic_.despawn(running->worker);
  cloud->refresh();
  sim_.run_until(300.0);
  cloud->refresh();
  sim_.run_until(600.0);
  const Task* done = cloud->find_task(id);
  EXPECT_EQ(done->state, TaskState::kCompleted);
  EXPECT_GE(done->migrations, 1);
  EXPECT_EQ(cloud->stats().migrations, 1u);
  EXPECT_DOUBLE_EQ(cloud->stats().wasted_work, 0.0);  // progress preserved
}

TEST_F(CloudFixture, MigrationTargetDepartingDoesNotInflateProgress) {
  // Regression: a task whose migration TARGET dies mid-transfer must not
  // double-count progress from its stale run_started.
  CloudConfig config;
  config.handover.enabled = true;
  // The target dies at the instant the migration starts, so any transfer
  // (a checkpoint of at least 0.5 MB over a link of at most 16 Mb/s) is
  // still in flight.
  auto cloud = make_stationary_cloud(3, config);
  Task t;
  t.work = 100.0;
  const TaskId id = cloud->submit(t);
  sim_.run_until(5.0);
  const Task* running = cloud->find_task(id);
  ASSERT_EQ(running->state, TaskState::kRunning);
  const double progress_before = running->progress;  // 0: counted lazily
  (void)progress_before;
  // Kill the worker: migration to a new target begins.
  traffic_.despawn(running->worker);
  cloud->refresh();
  const Task* migrating = cloud->find_task(id);
  ASSERT_EQ(migrating->state, TaskState::kMigrating);
  const double progress_at_interrupt = migrating->progress;
  EXPECT_GT(progress_at_interrupt, 0.0);
  EXPECT_LT(progress_at_interrupt, 100.0);
  // Kill the migration target mid-transfer.
  traffic_.despawn(migrating->worker);
  cloud->refresh();
  const Task* after = cloud->find_task(id);
  // No progress may have appeared out of thin air.
  EXPECT_DOUBLE_EQ(after->progress, progress_at_interrupt);
  // And the task still finishes on the remaining worker.
  for (int i = 0; i < 200; ++i) {
    sim_.run_until(sim_.now() + 5.0);
    cloud->refresh();
  }
  EXPECT_EQ(cloud->find_task(id)->state, TaskState::kCompleted);
}

TEST_F(CloudFixture, DepartureWithoutHandoverWastesWork) {
  CloudConfig config;
  config.handover.enabled = false;
  auto cloud = make_stationary_cloud(3, config);
  Task t;
  t.work = 50.0;
  const TaskId id = cloud->submit(t);
  sim_.run_until(5.0);
  const Task* running = cloud->find_task(id);
  ASSERT_EQ(running->state, TaskState::kRunning);
  traffic_.despawn(running->worker);
  cloud->refresh();
  sim_.run_until(600.0);
  cloud->refresh();
  sim_.run_until(1200.0);
  const Task* done = cloud->find_task(id);
  EXPECT_EQ(done->state, TaskState::kCompleted);
  EXPECT_GT(cloud->stats().wasted_work, 0.0);
  EXPECT_EQ(cloud->stats().reallocations, 1u);
  EXPECT_EQ(done->migrations, 0);
}

TEST_F(CloudFixture, RsuCloudEmptiesWhenRsuFails) {
  for (int i = 0; i < 4; ++i) traffic_.spawn_parked(LinkId{0}, 20.0 * i);
  const RsuId rsu = net_.rsus().add({50, 0}, 500.0);
  net_.refresh();
  VehicularCloud cloud(CloudId{2}, net_, rsu_membership(net_, rsu),
                       rsu_region(net_, rsu),
                       std::make_unique<GreedyResourceScheduler>(), {},
                       Rng(4));
  cloud.refresh();
  EXPECT_EQ(cloud.member_count(), 4u);
  net_.rsus().set_online(rsu, false);
  cloud.refresh();
  EXPECT_EQ(cloud.member_count(), 0u);
}

TEST_F(CloudFixture, DynamicCloudFollowsCluster) {
  for (int i = 0; i < 5; ++i) traffic_.spawn_parked(LinkId{0}, 30.0 * i);
  net_.refresh();
  cluster::MovingZone zones(net_);
  zones.update();
  auto membership = largest_cluster_membership(zones);
  VehicularCloud cloud(CloudId{3}, net_, membership,
                       largest_cluster_region(traffic_, zones, 300.0),
                       std::make_unique<GreedyResourceScheduler>(), {},
                       Rng(5));
  cloud.refresh();
  EXPECT_EQ(cloud.member_count(), 5u);
  EXPECT_GT(cloud.region().radius, 0.0);
}

TEST_F(CloudFixture, RegionIsReadOncePerRoundNotOncePerWorker) {
  // W parked workers under a region that counts its evaluations. One
  // dispatch round (a submit, a completion, a refresh) may read the region
  // a bounded number of times, independent of W; reading it per worker
  // per pending task costs k * W calls for k submits alone.
  constexpr std::size_t kWorkers = 60;
  constexpr std::size_t kTasks = 80;  // more than workers: some queue
  std::vector<VehicleId> parked;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    parked.push_back(traffic_.spawn_parked(LinkId{0}, 3.0 * i));
  }
  net_.refresh();
  std::size_t region_calls = 0;
  VehicularCloud cloud(
      CloudId{4}, net_, [parked] { return parked; },
      [&region_calls] {
        ++region_calls;
        return CloudRegion{{100, 0}, 400.0};
      },
      std::make_unique<DwellAwareScheduler>(), {}, Rng(6));
  std::size_t refreshes = 0;
  cloud.set_refresh_hook([&refreshes](SimTime) { ++refreshes; });
  cloud.refresh();
  cloud.attach();
  ASSERT_EQ(cloud.member_count(), kWorkers);
  for (std::size_t i = 0; i < kTasks; ++i) {
    Task t;
    t.work = 10.0;
    cloud.submit(t);
  }
  EXPECT_GT(cloud.pending_count(), 0u);
  sim_.run_until(60.0);
  EXPECT_EQ(cloud.stats().completed, kTasks);
  ASSERT_GT(refreshes, 50u);
  // Each dispatch pick and each broker election reads the region once;
  // neither count grows with W.
  EXPECT_LE(region_calls, 2 * (kTasks + refreshes));
  EXPECT_LT(region_calls, kTasks * kWorkers);
}

// ---- views(): memoized, and identical to a fresh build ---------------------
// views() keeps one view per member and re-estimates dwell only when the
// traffic epoch or the region changed. These worlds compare it, at every
// refresh and every submit (and after each world mutation in the lot),
// with a build from the public accessors: same members in id order, same
// profiles and busy flags, and each dwell bitwise equal to an estimate made
// now against the region read now.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_fresh_views(const VehicularCloud& cloud, const std::string& where) {
  const std::vector<WorkerView>& memo = cloud.views();
  ASSERT_EQ(memo.size(), cloud.member_count()) << where;
  const CloudRegion region = cloud.region();
  for (std::size_t i = 0; i < memo.size(); ++i) {
    const WorkerView& view = memo[i];
    if (i > 0) {
      ASSERT_LT(memo[i - 1].id, view.id) << where;
    }
    const ResourceProfile* profile = cloud.worker_profile(view.id);
    ASSERT_NE(profile, nullptr) << where << ": " << view.id;
    EXPECT_TRUE(view.profile == *profile) << where << ": " << view.id;
    EXPECT_EQ(view.busy, cloud.running_on(view.id).valid())
        << where << ": " << view.id;
    const double fresh = cloud.worker_dwell(view.id, region);
    EXPECT_EQ(bits(view.dwell_seconds), bits(fresh))
        << where << ": worker " << view.id << " memo " << view.dwell_seconds
        << " fresh " << fresh;
  }
}

core::SystemConfig city_config(core::CloudArchitecture architecture) {
  core::SystemConfig cfg;
  cfg.scenario.grid_rows = 6;
  cfg.scenario.grid_cols = 6;
  cfg.scenario.vehicles = 120;
  cfg.scenario.seed = 5;
  cfg.architecture = architecture;
  return cfg;
}

// Submits three tasks every 0.5 s from `first` on, off the 0.1 s mobility
// grid, and checks the views after each batch.
void submit_and_check_every(core::VehicularCloudSystem& system,
                            SimTime first) {
  const WorkloadConfig workload{20.0, 1.0, 0.2, 60.0};
  system.scenario().simulator().schedule_every(
      0.5,
      [&system, workload] {
        system.submit_workload(workload, 3);
        expect_fresh_views(
            system.cloud(),
            "submit t=" + std::to_string(system.scenario().simulator().now()));
      },
      first);
}

TEST(ViewMemo, MatchesFreshBuildInMovingDynamicCity) {
  core::VehicularCloudSystem system(
      city_config(core::CloudArchitecture::kDynamic));
  system.start();
  VehicularCloud& cloud = system.cloud();
  mobility::TrafficModel& traffic = system.scenario().traffic();
  std::size_t refreshes = 0, joins = 0, leaves = 0;
  std::vector<VehicleId> last = cloud.worker_ids();
  cloud.set_refresh_hook([&](SimTime now) {
    ++refreshes;
    const std::string where = "refresh t=" + std::to_string(now);
    expect_fresh_views(cloud, where);
    // The memoized centroid against one summed here.
    const std::vector<VehicleId> members =
        largest_cluster_membership(system.clusters())();
    geo::Vec2 sum;
    std::size_t n = 0;
    for (const VehicleId v : members) {
      if (const mobility::VehicleState* s = traffic.find(v)) {
        sum += s->pos;
        ++n;
      }
    }
    const CloudRegion region = cloud.region();
    if (n == 0) {
      EXPECT_EQ(region.radius, 0.0) << where;
    } else {
      const geo::Vec2 centroid = sum / static_cast<double>(n);
      EXPECT_EQ(bits(region.center.x), bits(centroid.x)) << where;
      EXPECT_EQ(bits(region.center.y), bits(centroid.y)) << where;
    }
    const std::vector<VehicleId> now_ids = cloud.worker_ids();
    std::vector<VehicleId> diff;
    std::set_difference(now_ids.begin(), now_ids.end(), last.begin(),
                        last.end(), std::back_inserter(diff));
    joins += diff.size();
    diff.clear();
    std::set_difference(last.begin(), last.end(), now_ids.begin(),
                        now_ids.end(), std::back_inserter(diff));
    leaves += diff.size();
    last = now_ids;
  });
  submit_and_check_every(system, 0.25);
  system.run_for(30.0);
  EXPECT_GE(refreshes, 29u);
  EXPECT_GT(joins, 0u);  // churn both ways
  EXPECT_GT(leaves, 0u);
  EXPECT_GT(cloud.stats().submitted, 150u);
}

TEST(ViewMemo, MatchesFreshBuildInRsuCloudThroughAnOutage) {
  core::SystemConfig cfg =
      city_config(core::CloudArchitecture::kInfrastructureBased);
  cfg.scenario.rsu_spacing = 400.0;
  // The cloud anchors on the RSU nearest the map centre; a twin world
  // names it for the fault plan.
  RsuId anchor;
  {
    core::VehicularCloudSystem twin(cfg);
    twin.start();
    const CloudRegion region = twin.cloud().region();
    for (const net::Rsu& r : twin.scenario().network().rsus().all()) {
      if (r.pos.x == region.center.x && r.pos.y == region.center.y) {
        anchor = r.id;
      }
    }
  }
  ASSERT_TRUE(anchor.valid());
  // The outage lands between two submits with no mobility step between
  // them: only the region term of the memo key sees it.
  fault::FaultEvent outage;
  outage.kind = fault::FaultKind::kRsuOutage;
  outage.at = 20.03;
  outage.rsu = anchor;
  outage.repair_after = 10.0;
  cfg.fault_plan = {outage};
  core::VehicularCloudSystem system(cfg);
  system.start();
  VehicularCloud& cloud = system.cloud();
  std::size_t refreshes = 0, dark_refreshes = 0;
  cloud.set_refresh_hook([&](SimTime now) {
    ++refreshes;
    if (cloud.region().radius == 0.0) ++dark_refreshes;
    expect_fresh_views(cloud, "refresh t=" + std::to_string(now));
  });
  submit_and_check_every(system, 0.02);
  submit_and_check_every(system, 0.05);
  system.run_for(40.0);
  EXPECT_GE(refreshes, 39u);
  EXPECT_GE(dark_refreshes, 9u);  // the outage held ~10 s
  EXPECT_GT(cloud.stats().completed, 0u);
}

TEST_F(CloudFixture, ViewMemoMatchesFreshBuildInStationaryLot) {
  // No mobility step runs, so the traffic epoch moves only through the
  // explicit mutator calls below and each one must invalidate on its own.
  std::vector<VehicleId> parked;
  for (int i = 0; i < 8; ++i) {
    parked.push_back(traffic_.spawn_parked(LinkId{0}, 8.0 * i));
  }
  const geo::Vec2 center = traffic_.find(parked[0])->pos;
  constexpr double kRadius = 120.0;  // link 0 runs out of it
  net_.refresh();
  AdmissionControl admission(AdmissionConfig{});
  VehicularCloud cloud(CloudId{7}, net_,
                       stationary_membership(traffic_, center, kRadius),
                       fixed_region(center, kRadius),
                       std::make_unique<DwellAwareScheduler>(), {}, Rng(8));
  cloud.set_admission(&admission);
  std::size_t refreshes = 0;
  cloud.set_refresh_hook([&](SimTime) {
    ++refreshes;
    expect_fresh_views(cloud, "refresh " + std::to_string(refreshes));
  });
  const auto submit = [&](const std::string& where) {
    Task t;
    t.work = 500.0;  // outlasts the test: its worker stays busy
    cloud.submit(t);
    expect_fresh_views(cloud, "submit " + where);
  };
  const auto dwell_of = [&](VehicleId v) {
    for (const WorkerView& view : cloud.views()) {
      if (view.id == v) return view.dwell_seconds;
    }
    return -1.0;
  };
  cloud.refresh();
  ASSERT_EQ(cloud.member_count(), 8u);
  for (int i = 0; i < 3; ++i) submit("initial " + std::to_string(i));

  // find_mutable: an idle member pulls out, so its dwell turns from +inf
  // into the walk out of the disc.
  VehicleId driver;
  for (const VehicleId v : parked) {
    if (!cloud.running_on(v).valid()) driver = v;
  }
  ASSERT_TRUE(driver.valid());
  ASSERT_TRUE(std::isinf(dwell_of(driver)));
  mobility::VehicleState* s = traffic_.find_mutable(driver);
  s->parked = false;
  s->speed = 2.0;
  expect_fresh_views(cloud, "after find_mutable");
  EXPECT_TRUE(std::isfinite(dwell_of(driver)));

  // spawn_parked and spawn: an admitted claim names the next vehicle id
  // before that vehicle exists (dwell 0); the spawn gives it a dwell.
  const VehicleId claimed{parked.back().value() + 1};
  ASSERT_TRUE(cloud.offer_join(claimed, /*fabricated=*/false));
  submit("after a claim");
  EXPECT_EQ(dwell_of(claimed), 0.0);
  ASSERT_EQ(traffic_.spawn_parked(LinkId{0}, 70.0), claimed);
  expect_fresh_views(cloud, "after spawn_parked");
  EXPECT_TRUE(std::isinf(dwell_of(claimed)));
  const VehicleId claimed_moving{claimed.value() + 1};
  ASSERT_TRUE(cloud.offer_join(claimed_moving, /*fabricated=*/false));
  expect_fresh_views(cloud, "after a second claim");
  ASSERT_EQ(traffic_.spawn({LinkId{0}}, 3.0), claimed_moving);
  expect_fresh_views(cloud, "after spawn");
  EXPECT_GT(dwell_of(claimed_moving), 0.0);

  // despawn: a busy member crashes and its vehicle vanishes; the zombie
  // stays on the books with dwell 0.
  VehicleId victim;
  for (const VehicleId v : parked) {
    if (cloud.running_on(v).valid()) victim = v;
  }
  ASSERT_TRUE(victim.valid());
  cloud.crash_worker(victim);
  traffic_.despawn(victim);
  submit("after a crash");
  EXPECT_EQ(dwell_of(victim), 0.0);

  // A busy member leaves gracefully: the refresh hands its task over.
  VehicleId leaver;
  for (const VehicleId v : parked) {
    if (v != victim && cloud.running_on(v).valid()) leaver = v;
  }
  ASSERT_TRUE(leaver.valid());
  traffic_.despawn(leaver);
  cloud.refresh();  // the driver leaves the lot too
  EXPECT_FALSE(cloud.is_worker(leaver));
  EXPECT_FALSE(cloud.is_worker(driver));
  EXPECT_EQ(cloud.stats().migrations, 1u);

  // Admission eviction: a member's revocation becomes visible.
  VehicleId revoked;
  for (const VehicleId v : cloud.worker_ids()) {
    if (v != victim && cloud.running_on(v).valid()) revoked = v;
  }
  ASSERT_TRUE(revoked.valid());
  admission.note_revoked(revoked, 0.0);
  admission.deliver_crl(revoked, 0.0, 0.0, 0.0);
  cloud.refresh();
  EXPECT_FALSE(cloud.is_worker(revoked));
  EXPECT_EQ(admission.stats().revoked_evictions, 1u);
  submit("after an eviction");
  EXPECT_EQ(refreshes, 3u);
}

// ---- Work counters: a dwell estimate per member per instant -----------------

TEST(ViewMemo, SubmitWorkloadEstimatesEachMemberAtMostOnce) {
  core::VehicularCloudSystem system(
      city_config(core::CloudArchitecture::kDynamic));
  system.start();
  system.run_for(5.55);  // the world moved since the last refresh
  VehicularCloud& cloud = system.cloud();
  const std::size_t workers = cloud.member_count();
  ASSERT_GT(workers, 20u);
  const std::uint64_t before = cloud.dwell_estimates();
  // More tasks than members, so every submit runs a dispatch round. A
  // rebuild per round would cost k * W estimates.
  const std::size_t k = 2 * workers;
  system.submit_workload(WorkloadConfig{20.0, 1.0, 0.2, 60.0}, k);
  EXPECT_GT(cloud.pending_count(), 0u);
  const std::uint64_t made = cloud.dwell_estimates() - before;
  EXPECT_GT(made, 0u);
  EXPECT_LE(made, workers);
}

TEST_F(CloudFixture, RefreshWithDeparturesEstimatesEachMemberAtMostOnce) {
  // 40 parked members, 30 busy; 8 busy ones leave. Each departure hands
  // over through views(), and so do the broker election and the dispatch
  // round: a rebuild per read would cost (D + 2) * W estimates.
  std::vector<VehicleId> parked;
  for (int i = 0; i < 40; ++i) {
    parked.push_back(traffic_.spawn_parked(LinkId{0}, 4.0 * i));
  }
  net_.refresh();
  VehicularCloud cloud(CloudId{9}, net_,
                       stationary_membership(traffic_, {100, 0}, 400.0),
                       fixed_region({100, 0}, 400.0),
                       std::make_unique<GreedyResourceScheduler>(), {},
                       Rng(10));
  cloud.refresh();
  for (int i = 0; i < 30; ++i) {
    Task t;
    t.work = 500.0;
    cloud.submit(t);
  }
  std::size_t departed = 0;
  for (const VehicleId v : parked) {
    if (departed < 8 && cloud.running_on(v).valid()) {
      traffic_.despawn(v);
      ++departed;
    }
  }
  ASSERT_EQ(departed, 8u);
  const std::size_t workers = cloud.member_count();
  const std::uint64_t before = cloud.dwell_estimates();
  cloud.refresh();
  EXPECT_EQ(cloud.member_count(), workers - departed);
  EXPECT_EQ(cloud.stats().migrations, departed);
  EXPECT_LE(cloud.dwell_estimates() - before, workers);
}

// ---- Dependability: crashes, heartbeats, retry, checkpoints, replicas ---------

TEST_F(CloudFixture, CrashWithoutDetectorHangsForever) {
  CloudConfig config;  // every dependability knob off: the §III collapse case
  auto cloud = make_stationary_cloud(3, config);
  cloud->attach();
  Task t;
  t.work = 30.0;
  const TaskId id = cloud->submit(t);
  sim_.run_until(2.0);
  ASSERT_EQ(cloud->find_task(id)->state, TaskState::kRunning);
  const VehicleId victim = cloud->find_task(id)->worker;
  cloud->crash_worker(victim);
  traffic_.despawn(victim);
  sim_.run_until(500.0);
  // Nobody ever tells the cloud: the task hangs on the zombie forever.
  EXPECT_EQ(cloud->find_task(id)->state, TaskState::kRunning);
  EXPECT_EQ(cloud->stats().completed, 0u);
  EXPECT_TRUE(cloud->worker_crashed(victim));
}

TEST_F(CloudFixture, HeartbeatLossWithoutCrashIsFalsePositive) {
  CloudConfig config;
  config.dependability.detector.enabled = true;
  config.dependability.detector.missed_beats_to_kill = 3;
  auto cloud = make_stationary_cloud(4, config);
  cloud->attach();
  Task t;
  t.work = 60.0;
  const TaskId id = cloud->submit(t);
  sim_.run_until(2.0);
  ASSERT_EQ(cloud->find_task(id)->state, TaskState::kRunning);
  // Jam the whole lot: every heartbeat is lost, but NOBODY crashed.
  const std::uint64_t token = net_.channel().add_blackout({{100, 0}, 5000.0});
  sim_.run_until(10.0);
  EXPECT_GE(cloud->stats().false_positive_kills, 1u);
  EXPECT_EQ(cloud->stats().crash_kills, 0u);
  // The blackout lifts: falsely-killed live workers re-join on refresh and
  // the task still completes.
  net_.channel().remove_blackout(token);
  sim_.run_until(400.0);
  EXPECT_EQ(cloud->find_task(id)->state, TaskState::kCompleted);
}

TEST_F(CloudFixture, CrashRecoveryResumesFromCheckpoint) {
  CloudConfig config;
  config.dependability.detector.enabled = true;
  config.dependability.checkpoint.enabled = true;
  config.dependability.checkpoint.period = 2.0;
  auto cloud = make_stationary_cloud(4, config);
  cloud->attach();
  Task t;
  t.work = 200.0;  // long enough to still be running at the crash
  const TaskId id = cloud->submit(t);
  sim_.run_until(11.0);
  ASSERT_EQ(cloud->find_task(id)->state, TaskState::kRunning);
  const VehicleId victim = cloud->find_task(id)->worker;
  cloud->crash_worker(victim);
  traffic_.despawn(victim);
  const double at_crash = cloud->find_task(id)->progress;
  const double checkpointed = cloud->find_task(id)->checkpoint_progress;
  EXPECT_GT(at_crash, 0.0);
  EXPECT_GT(checkpointed, 0.0);
  EXPECT_LE(checkpointed, at_crash);
  sim_.run_until(2000.0);
  ASSERT_EQ(cloud->find_task(id)->state, TaskState::kCompleted);
  EXPECT_EQ(cloud->stats().crash_kills, 1u);
  EXPECT_EQ(cloud->stats().false_positive_kills, 0u);
  ASSERT_EQ(cloud->stats().detection_latency.count(), 1u);
  EXPECT_GE(cloud->stats().detection_latency.mean(),
            kHeartbeatPeriod *
                config.dependability.detector.missed_beats_to_kill);
  EXPECT_GT(cloud->stats().checkpoints, 0u);
  EXPECT_GT(cloud->stats().checkpoint_mb, 0.0);
  // Only the delta since the last checkpoint was lost.
  EXPECT_NEAR(cloud->stats().wasted_work, at_crash - checkpointed, 1e-9);
  EXPECT_LT(cloud->stats().wasted_work, at_crash);
}

TEST_F(CloudFixture, CrashRecoveryWithoutCheckpointRestartsFromZero) {
  CloudConfig config;
  config.dependability.detector.enabled = true;  // checkpointing OFF
  auto cloud = make_stationary_cloud(4, config);
  cloud->attach();
  Task t;
  t.work = 200.0;
  const TaskId id = cloud->submit(t);
  sim_.run_until(11.0);
  ASSERT_EQ(cloud->find_task(id)->state, TaskState::kRunning);
  const VehicleId victim = cloud->find_task(id)->worker;
  cloud->crash_worker(victim);
  traffic_.despawn(victim);
  const double at_crash = cloud->find_task(id)->progress;
  EXPECT_GT(at_crash, 0.0);
  sim_.run_until(2000.0);
  ASSERT_EQ(cloud->find_task(id)->state, TaskState::kCompleted);
  // Everything earned before the crash was thrown away.
  EXPECT_NEAR(cloud->stats().wasted_work, at_crash, 1e-9);
  EXPECT_GE(cloud->stats().reallocations, 1u);
  EXPECT_EQ(cloud->stats().crash_kills, 1u);
}

TEST_F(CloudFixture, SoleWorkerCrashLeavesTaskCrashRecovering) {
  CloudConfig config;
  config.dependability.detector.enabled = true;
  auto cloud = make_stationary_cloud(1, config);
  cloud->attach();
  Task t;
  t.work = 50.0;
  const TaskId id = cloud->submit(t);
  sim_.run_until(2.0);
  const VehicleId victim = cloud->find_task(id)->worker;
  cloud->crash_worker(victim);
  traffic_.despawn(victim);
  sim_.run_until(30.0);
  // Declared dead, rolled back, re-queued — but no worker remains.
  EXPECT_EQ(cloud->find_task(id)->state, TaskState::kCrashRecovering);
  EXPECT_EQ(cloud->stats().crash_kills, 1u);
  EXPECT_EQ(cloud->pending_count(), 1u);
}

TEST_F(CloudFixture, DispatchRetriesUnderBlackoutThenCompletes) {
  CloudConfig config;
  config.dependability.retry.enabled = true;
  config.dependability.retry.max_attempts = 3;
  config.dependability.retry.ack_timeout = 0.5;
  auto cloud = make_stationary_cloud(3, config);
  cloud->attach();
  const std::uint64_t token = net_.channel().add_blackout({{100, 0}, 5000.0});
  Task t;
  t.work = 10.0;
  const TaskId id = cloud->submit(t);
  EXPECT_GE(cloud->stats().retries, 1u);  // the first send fails right away
  sim_.run_until(5.0);
  EXPECT_EQ(cloud->stats().completed, 0u);  // nothing got through
  net_.channel().remove_blackout(token);
  sim_.run_until(200.0);
  EXPECT_EQ(cloud->find_task(id)->state, TaskState::kCompleted);
  EXPECT_GT(cloud->stats().retries, 1u);
}

TEST_F(CloudFixture, RetryExhaustionFreesWorkerForTheSameRound) {
  // One attempt per dispatch over a congested channel: each lost send frees
  // its worker and re-queues the task in the middle of the dispatch round. The
  // round must see the freed worker as idle again, and a worker that took
  // a task as busy, until every task holds a worker of its own; no
  // simulated time passes.
  CloudConfig config;
  config.dependability.retry.enabled = true;
  config.dependability.retry.max_attempts = 1;
  std::vector<VehicleId> members;
  VehicularCloud cloud(CloudId{5}, net_, [&members] { return members; },
                       fixed_region({100, 0}, 400.0),
                       std::make_unique<GreedyResourceScheduler>(), config,
                       Rng(7));
  constexpr std::size_t kTasks = 3;
  std::vector<TaskId> ids;
  for (std::size_t i = 0; i < kTasks; ++i) {
    Task t;
    t.work = 10.0;
    ids.push_back(cloud.submit(t));  // no members yet: all queue
  }
  ASSERT_EQ(cloud.pending_count(), kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    members.push_back(traffic_.spawn_parked(LinkId{0}, 10.0 * i));
  }
  // 220 parked bystanders within 150 m of every member: contention leaves
  // each send about a 1-in-10 chance.
  for (int i = 0; i < 220; ++i) {
    traffic_.spawn_parked(LinkId{0}, 30.0 + 0.5 * i);
  }
  net_.refresh();
  cloud.refresh();  // the members arrive; one round dispatches the queue
  ASSERT_GE(cloud.stats().retries, 1u);  // the round freed a worker
  EXPECT_EQ(cloud.pending_count(), 0u);
  std::set<std::uint64_t> holders;
  for (const TaskId id : ids) {
    const Task* task = cloud.find_task(id);
    ASSERT_NE(task, nullptr);
    EXPECT_EQ(task->state, TaskState::kRunning);
    ASSERT_TRUE(task->worker.valid());
    EXPECT_EQ(cloud.running_on(task->worker), id);
    holders.insert(task->worker.value());
  }
  EXPECT_EQ(holders.size(), kTasks);
  EXPECT_EQ(sim_.now(), 0.0);
}

TEST_F(CloudFixture, SpeculativeReplicaFirstFinisherWins) {
  CloudConfig config;
  config.dependability.speculation.enabled = true;
  auto cloud = make_stationary_cloud(4, config);
  cloud->attach();
  Task t;
  t.work = 20.0;
  t.deadline = 500.0;
  const TaskId id = cloud->submit(t);
  sim_.run_until(300.0);
  EXPECT_EQ(cloud->find_task(id)->state, TaskState::kCompleted);
  EXPECT_EQ(cloud->stats().completed, 1u);  // the loser does not double-count
  EXPECT_EQ(cloud->stats().replicas_launched, 1u);
  EXPECT_GT(cloud->stats().redundant_work, 0.0);  // the loser's effort
}

TEST_F(CloudFixture, ReplicaRescuesCrashedPrimary) {
  CloudConfig config;
  config.dependability.detector.enabled = true;
  config.dependability.speculation.enabled = true;
  auto cloud = make_stationary_cloud(4, config);
  cloud->attach();
  Task t;
  t.work = 60.0;
  t.deadline = 1000.0;
  const TaskId id = cloud->submit(t);
  sim_.run_until(2.0);
  ASSERT_EQ(cloud->find_task(id)->state, TaskState::kRunning);
  const VehicleId primary = cloud->find_task(id)->worker;
  cloud->crash_worker(primary);
  traffic_.despawn(primary);
  sim_.run_until(900.0);
  EXPECT_EQ(cloud->find_task(id)->state, TaskState::kCompleted);
  EXPECT_EQ(cloud->stats().crash_kills, 1u);
  EXPECT_EQ(cloud->stats().replicas_launched, 1u);
}

TEST_F(CloudFixture, ReplicaCompletingAQueuedTaskRetiresItOnce) {
  // The primary departs with no idle handover target, so the task goes back
  // to the queue behind two others while its replica keeps computing. The
  // replica then completes it, and the completed entry stays queued until
  // dispatch reaches it. Passing the deadline later must not expire it a
  // second time.
  CloudConfig config;
  config.handover.enabled = true;
  config.dependability.speculation.enabled = true;
  auto cloud = make_stationary_cloud(3, config);
  InvariantOracle oracle;
  cloud->set_oracle(&oracle);
  std::size_t terminals = 0;
  cloud->set_terminal_hook([&](const Task&, SimTime) { ++terminals; });
  Task hedged;
  hedged.work = 20.0;
  hedged.deadline = 200.0;
  const TaskId id = cloud->submit(hedged);
  ASSERT_TRUE(cloud->has_replica(id));
  for (int i = 0; i < 3; ++i) {  // one takes the last idle worker, two queue
    Task blocker;
    blocker.work = 1e6;
    cloud->submit(blocker);
  }
  traffic_.despawn(cloud->find_task(id)->worker);
  cloud->refresh();
  ASSERT_EQ(cloud->find_task(id)->state, TaskState::kPending);
  ASSERT_EQ(cloud->pending_count(), 3u);
  sim_.run_until(150.0);
  ASSERT_EQ(cloud->find_task(id)->state, TaskState::kCompleted);
  ASSERT_EQ(cloud->pending_count(), 2u);  // the completed entry is still queued

  sim_.run_until(250.0);
  cloud->refresh();
  EXPECT_EQ(cloud->find_task(id)->state, TaskState::kCompleted);
  EXPECT_EQ(cloud->stats().completed, 1u);
  EXPECT_EQ(cloud->stats().expired, 0u);
  EXPECT_EQ(terminals, 1u);
  EXPECT_TRUE(oracle.ok()) << (oracle.violations().empty()
                                   ? std::string()
                                   : oracle.violations()[0].to_string());
}

TEST_F(CloudFixture, StatsReportingIsWellFormed) {
  auto cloud = make_stationary_cloud(2);
  Task t;
  t.work = 5.0;
  cloud->submit(t);
  sim_.run_until(60.0);
  const CloudStats& s = cloud->stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_DOUBLE_EQ(s.completion_rate(), 1.0);
}

// ---- Replication ----------------------------------------------------------------

class ReplicationFixture : public ::testing::Test {
 protected:
  ReplicationFixture() {
    for (int i = 0; i < 10; ++i) live_.push_back(VehicleId{static_cast<std::uint64_t>(i)});
  }

  ReplicationManager make_manager(std::size_t target) {
    ReplicationConfig cfg;
    cfg.target_replicas = target;
    return ReplicationManager([this] { return live_; }, cfg, Rng(1));
  }

  std::vector<VehicleId> live_;
};

TEST_F(ReplicationFixture, StorePlacesTargetReplicas) {
  auto mgr = make_manager(3);
  const FileId id = mgr.store(crypto::Bytes(1000, 7));
  EXPECT_EQ(mgr.live_replicas(id), 3u);
  EXPECT_TRUE(mgr.available(id));
  const StoredFile* f = mgr.find(id);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->merkle_root, crypto::Digest{});
}

TEST_F(ReplicationFixture, ChurnReducesThenRepairRestores) {
  auto mgr = make_manager(4);
  const FileId id = mgr.store(crypto::Bytes(1000, 7));
  // Kill 7 of 10 members.
  live_.erase(live_.begin(), live_.begin() + 7);
  const std::size_t after_churn = mgr.live_replicas(id);
  EXPECT_LT(after_churn, 4u);
  mgr.refresh();
  // Only 3 members remain: replicas capped by population.
  EXPECT_EQ(mgr.live_replicas(id), 3u);
  EXPECT_GT(mgr.repair_copies(), 0u);
}

TEST_F(ReplicationFixture, FileLostWhenAllHoldersDie) {
  auto mgr = make_manager(2);
  const FileId id = mgr.store(crypto::Bytes(100, 1));
  const StoredFile* f = mgr.find(id);
  // Remove exactly the holders.
  std::erase_if(live_, [&](VehicleId v) {
    return std::find(f->holders.begin(), f->holders.end(), v.value()) !=
           f->holders.end();
  });
  EXPECT_FALSE(mgr.available(id));
  mgr.refresh();  // nothing to copy from
  EXPECT_FALSE(mgr.available(id));
}

TEST_F(ReplicationFixture, MoreReplicasSurviveMoreChurn) {
  auto low = make_manager(1);
  auto high = make_manager(5);
  std::vector<FileId> low_ids, high_ids;
  for (int i = 0; i < 30; ++i) {
    low_ids.push_back(low.store(crypto::Bytes(100, 1)));
    high_ids.push_back(high.store(crypto::Bytes(100, 1)));
  }
  // Half the population goes offline.
  live_.resize(5);
  std::size_t low_alive = 0, high_alive = 0;
  for (int i = 0; i < 30; ++i) {
    low_alive += low.available(low_ids[static_cast<std::size_t>(i)]);
    high_alive += high.available(high_ids[static_cast<std::size_t>(i)]);
  }
  EXPECT_GT(high_alive, low_alive);
}

}  // namespace
}  // namespace vcl::vcloud
