#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "cluster/fuzzy_clustering.h"
#include "cluster/moving_zone.h"
#include "cluster/passive_clustering.h"
#include "cluster/speed_clustering.h"
#include "cluster/stability.h"
#include "vcloud/cloud.h"

namespace vcl::cluster {
namespace {

class ClusterFixture : public ::testing::Test {
 protected:
  ClusterFixture()
      : road_(geo::make_manhattan_grid(2, 10, 400.0)),
        traffic_(road_, Rng(1)),
        net_(sim_, traffic_, Rng(2)) {}

  VehicleId park_at(double offset) {
    // Link 0 runs 400 m along the bottom row.
    return traffic_.spawn_parked(LinkId{0}, offset);
  }
  VehicleId park_far(int link_steps, double offset) {
    return traffic_.spawn_parked(LinkId{static_cast<std::uint64_t>(link_steps)},
                                 offset);
  }

  geo::RoadNetwork road_;
  sim::Simulator sim_;
  mobility::TrafficModel traffic_;
  net::Network net_;
};

template <typename Manager>
void expect_consistent(const Manager& m) {
  // Every member's head must itself be a head; every head maps to itself.
  for (const auto& [vid, a] : m.assignments()) {
    if (a.role == ClusterRole::kHead) {
      EXPECT_EQ(a.head, VehicleId{vid});
    } else if (a.role == ClusterRole::kMember) {
      EXPECT_EQ(m.role(a.head), ClusterRole::kHead)
          << "member " << vid << " points to non-head";
    }
  }
}

TEST_F(ClusterFixture, SpeedClusteringGroupsCoLocatedVehicles) {
  for (double off : {0.0, 50.0, 100.0, 150.0}) park_at(off);
  // Several beacon rounds: neighbor tables tolerate individual beacon loss.
  for (int i = 0; i < 3; ++i) net_.refresh();
  SpeedClustering mgr(net_);
  mgr.update();
  const auto clusters = mgr.clusters();
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].second.size(), 4u);
  expect_consistent(mgr);
}

TEST_F(ClusterFixture, SpeedClusteringSeparatesDistantGroups) {
  park_at(0.0);
  park_at(60.0);
  // Far group: several links away (>1200 m).
  const auto far_link = LinkId{10};
  traffic_.spawn_parked(far_link, 0.0);
  traffic_.spawn_parked(far_link, 60.0);
  net_.refresh();
  SpeedClustering mgr(net_);
  mgr.update();
  EXPECT_EQ(mgr.clusters().size(), 2u);
  expect_consistent(mgr);
}

TEST_F(ClusterFixture, IsolatedVehicleIsOwnHead) {
  const VehicleId v = park_at(0.0);
  net_.refresh();
  SpeedClustering mgr(net_);
  mgr.update();
  EXPECT_EQ(mgr.role(v), ClusterRole::kHead);
  EXPECT_EQ(mgr.head_of(v), v);
}

TEST_F(ClusterFixture, HysteresisKeepsIncumbentHead) {
  for (double off : {0.0, 50.0, 100.0}) park_at(off);
  net_.refresh();
  SpeedClustering mgr(net_);
  mgr.update();
  const auto first = mgr.clusters();
  ASSERT_EQ(first.size(), 1u);
  const VehicleId head = first[0].first;
  // Re-running without mobility changes must keep the same head.
  for (int i = 0; i < 5; ++i) mgr.update();
  EXPECT_EQ(mgr.clusters()[0].first, head);
}

TEST_F(ClusterFixture, PassiveClusteringFormsClusters) {
  for (double off : {0.0, 40.0, 80.0, 120.0, 160.0}) park_at(off);
  net_.refresh();
  PassiveClustering mgr(net_);
  mgr.update();
  EXPECT_GE(mgr.clusters().size(), 1u);
  expect_consistent(mgr);
}

TEST_F(ClusterFixture, PassiveClusteringDepartedVehiclesPruned) {
  const VehicleId a = park_at(0.0);
  park_at(50.0);
  net_.refresh();
  PassiveClustering mgr(net_);
  mgr.update();
  EXPECT_EQ(mgr.assignments().size(), 2u);
  traffic_.despawn(a);
  net_.refresh();
  mgr.update();
  EXPECT_EQ(mgr.assignments().size(), 1u);
}

TEST(FuzzyMembership, TriangularShapes) {
  EXPECT_DOUBLE_EQ(membership_low(0.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(membership_low(10.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(membership_low(5.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(membership_high(0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(membership_high(10.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(membership_high(20.0, 10.0), 1.0);  // clamped
}

TEST_F(ClusterFixture, FuzzySuitabilityOrdersCandidates) {
  FuzzyClustering mgr(net_);
  // Stable + central + connected beats unstable peripheral.
  const double good = mgr.suitability(0.5, 30.0, 10.0);
  const double bad = mgr.suitability(7.5, 240.0, 1.0);
  EXPECT_GT(good, bad);
  EXPECT_GE(good, 0.0);
  EXPECT_LE(good, 1.0);
}

TEST_F(ClusterFixture, FuzzyClusteringElectsCentralHead) {
  // Line of 5: the middle vehicle is the most central.
  const VehicleId mid = [&] {
    park_at(0.0);
    park_at(70.0);
    const VehicleId m = park_at(140.0);
    park_at(210.0);
    park_at(280.0);
    return m;
  }();
  net_.refresh();
  FuzzyClustering mgr(net_);
  mgr.update();
  expect_consistent(mgr);
  // The central vehicle should head a cluster containing everyone it hears.
  EXPECT_EQ(mgr.role(mid), ClusterRole::kHead);
}

TEST_F(ClusterFixture, MovingZoneCompatiblePredicate) {
  MovingZone mgr(net_);
  const auto compatible = [&mgr](geo::Vec2 a, geo::Vec2 b) {
    return mgr.compatible(a, a.norm(), b, b.norm());
  };
  EXPECT_TRUE(compatible({20, 0}, {22, 0}));
  EXPECT_FALSE(compatible({20, 0}, {-20, 0}));     // opposite heading
  EXPECT_FALSE(compatible({20, 0}, {30, 0}));      // speed gap
  EXPECT_TRUE(compatible({0, 0}, {0, 0}));         // both parked
}

TEST_F(ClusterFixture, MovingZoneGroupsParkedVehicles) {
  for (double off : {0.0, 50.0, 100.0}) park_at(off);
  net_.refresh();
  MovingZone mgr(net_);
  mgr.update();
  ASSERT_EQ(mgr.clusters().size(), 1u);
  EXPECT_EQ(mgr.clusters()[0].second.size(), 3u);
  expect_consistent(mgr);
}

TEST_F(ClusterFixture, MovingZoneCaptainIsCentral) {
  park_at(0.0);
  const VehicleId mid = park_at(80.0);
  park_at(160.0);
  net_.refresh();
  MovingZone mgr(net_);
  mgr.update();
  EXPECT_EQ(mgr.role(mid), ClusterRole::kHead);
}

TEST_F(ClusterFixture, MovingZoneSplitsOppositeTraffic) {
  // Two vehicles driving in opposite directions on a highway, side by side.
  const auto highway = geo::make_highway(2000.0, 500.0);
  mobility::TrafficModel traffic(highway, Rng(5));
  net::Network net(sim_, traffic, Rng(6));
  // Eastbound on link 0, westbound on the reverse carriageway.
  const auto east = traffic.spawn({LinkId{0}, LinkId{1}}, 25.0);
  // Find a westbound link (from node on the west carriageway).
  LinkId west_link;
  for (const auto& l : highway.links()) {
    const auto dir = highway.link_direction(l.id);
    if (dir.x < -0.9) {
      west_link = l.id;
      break;
    }
  }
  ASSERT_TRUE(west_link.valid());
  const auto west = traffic.spawn({west_link}, 25.0);
  traffic.step(0.1);
  net.refresh();
  MovingZone mgr(net);
  mgr.update();
  EXPECT_NE(mgr.head_of(east), mgr.head_of(west));
}

TEST_F(ClusterFixture, StabilityTrackerCountsHeadTenure) {
  for (double off : {0.0, 50.0, 100.0}) park_at(off);
  net_.refresh();
  SpeedClustering mgr(net_);
  StabilityTracker tracker(mgr);
  mgr.update();
  tracker.observe(0.0);
  mgr.update();
  tracker.observe(1.0);
  // Stable scene: no reaffiliations, constant cluster count.
  EXPECT_DOUBLE_EQ(tracker.reaffiliation_rate(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.cluster_count().mean(), 1.0);
  EXPECT_DOUBLE_EQ(tracker.cluster_size().mean(), 3.0);
}

TEST_F(ClusterFixture, StabilityTrackerDetectsReaffiliation) {
  // Two co-located vehicles; despawn the head and watch the member re-home.
  const VehicleId a = park_at(0.0);
  const VehicleId b = park_at(50.0);
  const VehicleId c = park_at(100.0);
  net_.refresh();
  SpeedClustering mgr(net_);
  StabilityTracker tracker(mgr);
  mgr.update();
  tracker.observe(0.0);
  const VehicleId head = mgr.clusters()[0].first;
  traffic_.despawn(head);
  net_.refresh();
  mgr.update();
  tracker.observe(1.0);
  // The old head's tenure was closed.
  EXPECT_GE(tracker.head_lifetime().count(), 1u);
  (void)a; (void)b; (void)c;
}

TEST_F(ClusterFixture, MembersOfReturnsSortedMembers) {
  for (double off : {0.0, 40.0, 80.0}) park_at(off);
  net_.refresh();
  SpeedClustering mgr(net_);
  mgr.update();
  const auto& [head, members] = mgr.clusters()[0];
  EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
  EXPECT_EQ(members.size(), 3u);
  EXPECT_NE(std::find(members.begin(), members.end(), head), members.end());
}

// ---- clusters(): one pass, same result as one scan per head ---------------

// Every vehicle affiliated with `head` (the head itself included), found by
// a full scan of the assignment table, sorted.
std::vector<VehicleId> reference_members(const ClusterManager& m,
                                         VehicleId head) {
  std::vector<VehicleId> out;
  for (const auto& [vid, a] : m.assignments()) {
    if (a.role != ClusterRole::kFree && a.head == head) {
      out.push_back(VehicleId{vid});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The per-head construction clusters() replaced: every head's members found
// by a full scan, then sorted by head id.
ClusterList reference_clusters(const ClusterManager& m) {
  ClusterList out;
  for (const auto& [vid, a] : m.assignments()) {
    if (a.role == ClusterRole::kHead) {
      out.emplace_back(VehicleId{vid}, reference_members(m, VehicleId{vid}));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

// The largest cluster as the dynamic cloud picks it: the first strictly
// larger one in head-id order.
std::vector<VehicleId> reference_largest(const ClusterList& clusters) {
  std::vector<VehicleId> best;
  for (const auto& [head, members] : clusters) {
    if (members.size() > best.size()) best = members;
  }
  return best;
}

// An assignment table written directly, so it can hold what no protocol
// produces today: free vehicles, members naming a non-head or a vanished
// head, heads that name another vehicle.
class TableClusters final : public ClusterManager {
 public:
  using ClusterManager::ClusterManager;
  [[nodiscard]] const char* name() const override { return "table"; }
  void update() override {}
  void set(std::uint64_t v, std::uint64_t head, ClusterRole role) {
    assign(VehicleId{v}, VehicleId{head}, role);
  }
  void prune() { prune_departed(); }
};

TEST_F(ClusterFixture, OnePassClustersMatchPerHeadConstruction) {
  // Seeded random cities: moving and parked vehicles, several protocols,
  // a few mobility steps each. Isolated vehicles give singleton zones.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    geo::RoadNetwork road = geo::make_manhattan_grid(4, 4, 250.0);
    sim::Simulator sim;
    mobility::TrafficModel traffic(road, Rng(seed));
    net::Network net(sim, traffic, Rng(seed + 100));
    Rng rng(seed + 200);
    for (int i = 0; i < 40; ++i) {
      const LinkId link{static_cast<std::uint64_t>(rng.index(road.link_count()))};
      if (rng.uniform() < 0.3) {
        traffic.spawn_parked(link, rng.uniform(0.0, 240.0));
      } else {
        traffic.spawn({link}, rng.uniform(0.0, 15.0));
      }
    }
    std::vector<std::unique_ptr<ClusterManager>> managers;
    managers.push_back(std::make_unique<SpeedClustering>(net));
    managers.push_back(std::make_unique<PassiveClustering>(net));
    managers.push_back(std::make_unique<FuzzyClustering>(net));
    managers.push_back(std::make_unique<MovingZone>(net));
    for (int round = 0; round < 3; ++round) {
      net.refresh();
      for (auto& m : managers) {
        m->update();
        const ClusterList expected = reference_clusters(*m);
        EXPECT_EQ(m->clusters(), expected)
            << m->name() << " seed " << seed << " round " << round;
        EXPECT_EQ(vcloud::largest_cluster_membership(*m)(),
                  reference_largest(expected))
            << m->name() << " seed " << seed << " round " << round;
      }
      traffic.step(2.0);
    }
  }
}

TEST_F(ClusterFixture, OnePassClustersMatchOnRandomAssignmentTables) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    TableClusters table(net_);
    const int n = 1 + static_cast<int>(rng.index(60));
    for (int v = 1; v <= n; ++v) {
      const double r = rng.uniform();
      const auto other = 1 + static_cast<std::uint64_t>(rng.index(n + 5));
      if (r < 0.15) {
        table.set(v, other, ClusterRole::kFree);  // stale head, ignored
      } else if (r < 0.45) {
        // Mostly self-headed; now and then a head naming someone else.
        table.set(v, rng.uniform() < 0.9 ? v : other, ClusterRole::kHead);
      } else {
        table.set(v, other, ClusterRole::kMember);  // may name a non-head
      }
    }
    const ClusterList expected = reference_clusters(table);
    EXPECT_EQ(table.clusters(), expected) << "seed " << seed;
    EXPECT_EQ(vcloud::largest_cluster_membership(table)(),
              reference_largest(expected))
        << "seed " << seed;
  }
}

TEST_F(ClusterFixture, LargestClusterTieGoesToLowestHeadId) {
  TableClusters table(net_);
  // Heads 9 and 4 both lead three vehicles, head 2 leads one, 7 is free.
  for (const std::uint64_t v : {9, 10, 11}) {
    table.set(v, 9, v == 9 ? ClusterRole::kHead : ClusterRole::kMember);
  }
  for (const std::uint64_t v : {4, 5, 12}) {
    table.set(v, 4, v == 4 ? ClusterRole::kHead : ClusterRole::kMember);
  }
  table.set(2, 2, ClusterRole::kHead);
  table.set(7, 4, ClusterRole::kFree);
  const ClusterList clusters = table.clusters();
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_EQ(clusters, reference_clusters(table));
  const std::vector<VehicleId> expected{VehicleId{4}, VehicleId{5},
                                        VehicleId{12}};
  EXPECT_EQ(vcloud::largest_cluster_membership(table)(), expected);
  EXPECT_EQ(reference_largest(clusters), expected);
}

// ---- clusters() cache: rebuilt only when the assignment table changed ------

TEST_F(ClusterFixture, CachedClustersFollowEveryTableChange) {
  // Vehicles 0..5 exist; the table also names 6..9, which prune_departed
  // drops.
  for (int i = 0; i < 6; ++i) park_at(20.0 * i);
  TableClusters table(net_);
  Rng rng(3);
  for (int round = 0; round < 60; ++round) {
    const auto v = static_cast<std::uint64_t>(rng.index(10));
    const auto head = static_cast<std::uint64_t>(rng.index(10));
    const double r = rng.uniform();
    table.set(v, head,
              r < 0.2   ? ClusterRole::kFree
              : r < 0.6 ? ClusterRole::kHead
                        : ClusterRole::kMember);
    EXPECT_EQ(table.clusters(), reference_clusters(table)) << round;
    if (round % 10 == 9) {
      table.prune();
      EXPECT_EQ(table.clusters(), reference_clusters(table)) << round;
    }
  }
  // Reads without a change, and writes that change nothing, reuse the list.
  const std::uint64_t builds = table.cluster_builds();
  const std::uint64_t generation = table.generation();
  for (const auto& [vid, a] : table.assignments()) {
    table.set(vid, a.head.value(), a.role);
  }
  table.prune();
  EXPECT_EQ(table.generation(), generation);
  (void)table.clusters();
  (void)table.clusters();
  EXPECT_EQ(table.cluster_builds(), builds);
}

TEST_F(ClusterFixture, PruneDropsEveryKindOfStaleEntry) {
  // An entry goes stale when it names a vehicle never in traffic, one
  // despawned since, or one whose trip ended in a step; each is dropped by
  // the next prune, and live entries stay.
  const VehicleId kept = park_far(3, 10.0);
  const VehicleId despawned = park_far(4, 10.0);
  const VehicleId arriving = traffic_.spawn({LinkId{0}}, 15.0);
  TableClusters table(net_);
  const auto head = [&](VehicleId v) {
    table.set(v.value(), v.value(), ClusterRole::kHead);
  };
  head(kept);
  head(despawned);
  head(arriving);
  table.prune();
  EXPECT_EQ(table.assignments().size(), 3u);
  table.set(99, 99, ClusterRole::kHead);
  table.prune();
  EXPECT_EQ(table.assignments().size(), 3u);
  EXPECT_EQ(table.assignments().count(99), 0u);
  traffic_.despawn(despawned);
  table.prune();
  EXPECT_EQ(table.assignments().size(), 2u);
  EXPECT_EQ(table.assignments().count(despawned.value()), 0u);
  // Link 0 is 400 m: the trip ends well within 100 s.
  for (int i = 0; i < 1000 && traffic_.find(arriving) != nullptr; ++i) {
    traffic_.step(0.1);
  }
  ASSERT_EQ(traffic_.find(arriving), nullptr);
  table.prune();
  ASSERT_EQ(table.assignments().size(), 1u);
  EXPECT_EQ(table.assignments().count(kept.value()), 1u);
}

TEST_F(ClusterFixture, ClustersRebuildAtMostOncePerUpdate) {
  geo::RoadNetwork road = geo::make_manhattan_grid(4, 4, 250.0);
  sim::Simulator sim;
  mobility::TrafficModel traffic(road, Rng(4));
  net::Network net(sim, traffic, Rng(104));
  Rng rng(204);
  for (int i = 0; i < 40; ++i) {
    const LinkId link{static_cast<std::uint64_t>(rng.index(road.link_count()))};
    traffic.spawn({link}, rng.uniform(0.0, 15.0));
  }
  MovingZone zones(net);
  std::size_t rebuilt_rounds = 0;
  for (int round = 0; round < 20; ++round) {
    traffic.step(1.0);
    net.refresh();
    const std::uint64_t generation = zones.generation();
    const std::uint64_t builds = zones.cluster_builds();
    zones.update();
    const ClusterList expected = reference_clusters(zones);
    for (int read = 0; read < 4; ++read) {
      EXPECT_EQ(zones.clusters(), expected) << round;
      (void)vcloud::largest_cluster_membership(zones)();
    }
    const bool changed = zones.generation() != generation;
    EXPECT_EQ(zones.cluster_builds() - builds, changed ? 1u : 0u) << round;
    rebuilt_rounds += changed;
  }
  EXPECT_GT(rebuilt_rounds, 4u);  // the zones move
}

}  // namespace
}  // namespace vcl::cluster
