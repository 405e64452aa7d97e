// The flat world-model round (snapshot + CSR grid beaconing, dense
// union-find moving zones) against the keyed round it replaced, kept here
// as the reference: a hash-map grid, an O(deg^2) find_if neighbour-table
// merge, lookups through TrafficModel::find, and a map union-find that
// tests velocity compatibility before the common root. Both run side by
// side on the same world and must agree element by element, RNG draws
// included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cluster/moving_zone.h"
#include "core/scenario.h"

namespace vcl {
namespace {

// --- reference beaconing ------------------------------------------------------

class HashGrid {
 public:
  explicit HashGrid(double cell_size) : cell_size_(cell_size) {}

  void clear() { cells_.clear(); }
  void insert(VehicleId item, geo::Vec2 pos) {
    cells_[key(pos)].push_back(Entry{item, pos});
  }
  void query(geo::Vec2 center, double radius, std::vector<VehicleId>& out) const {
    out.clear();
    const double r2 = radius * radius;
    const auto [cx0, cy0] = cell_of({center.x - radius, center.y - radius});
    const auto [cx1, cy1] = cell_of({center.x + radius, center.y + radius});
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
      for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
        auto it = cells_.find(pack(cx, cy));
        if (it == cells_.end()) continue;
        for (const Entry& e : it->second) {
          if (geo::distance2(e.pos, center) <= r2) out.push_back(e.item);
        }
      }
    }
  }

 private:
  struct Entry {
    VehicleId item;
    geo::Vec2 pos;
  };
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> cell_of(geo::Vec2 p) const {
    return {static_cast<std::int64_t>(std::floor(p.x / cell_size_)),
            static_cast<std::int64_t>(std::floor(p.y / cell_size_))};
  }
  static std::uint64_t pack(std::int64_t cx, std::int64_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  }
  [[nodiscard]] std::uint64_t key(geo::Vec2 p) const {
    const auto [cx, cy] = cell_of(p);
    return pack(cx, cy);
  }

  double cell_size_;
  std::unordered_map<std::uint64_t, std::vector<Entry>> cells_;
};

class ReferenceBeacons {
 public:
  ReferenceBeacons(const mobility::TrafficModel& traffic,
                   const net::Channel& channel, Rng rng, SimTime ttl)
      : traffic_(traffic),
        channel_(channel),
        rng_(rng),
        ttl_(ttl),
        index_(channel.config().max_range) {}

  void round(SimTime now) {
    index_.clear();
    for (const auto& [vid, v] : traffic_.vehicles()) index_.insert(v.id, v.pos);

    const double range = channel_.config().max_range;
    std::vector<VehicleId> nearby;
    for (auto it = tables_.begin(); it != tables_.end();) {
      if (traffic_.find(VehicleId{it->first}) == nullptr) {
        it = tables_.erase(it);
      } else {
        ++it;
      }
    }
    for (const auto& [vid, v] : traffic_.vehicles()) {
      index_.query(v.pos, range, nearby);
      auto& table = tables_[v.id.value()];
      const std::size_t density = nearby.size();
      for (const VehicleId nid : nearby) {
        if (nid == v.id) continue;
        const mobility::VehicleState* n = traffic_.find(nid);
        if (n == nullptr) continue;
        if (!rng_.bernoulli(
                channel_.reception_probability(n->pos, v.pos, density))) {
          continue;
        }
        auto existing = std::find_if(
            table.begin(), table.end(),
            [nid](const net::NeighborEntry& e) { return e.id == nid; });
        if (existing != table.end()) {
          *existing = net::NeighborEntry{n->id, n->pos, n->vel, now};
        } else {
          table.push_back(net::NeighborEntry{n->id, n->pos, n->vel, now});
        }
      }
      std::erase_if(table, [&](const net::NeighborEntry& e) {
        if (now - e.last_heard > ttl_) return true;
        return traffic_.find(e.id) == nullptr;
      });
    }
  }

  [[nodiscard]] const std::vector<net::NeighborEntry>& table(VehicleId v) const {
    auto it = tables_.find(v.value());
    return it == tables_.end() ? empty_ : it->second;
  }
  [[nodiscard]] const std::unordered_map<std::uint64_t,
                                         std::vector<net::NeighborEntry>>&
  tables() const {
    return tables_;
  }
  [[nodiscard]] const Rng& rng() const { return rng_; }

 private:
  const mobility::TrafficModel& traffic_;
  const net::Channel& channel_;
  Rng rng_;
  SimTime ttl_;
  HashGrid index_;
  std::unordered_map<std::uint64_t, std::vector<net::NeighborEntry>> tables_;
  std::vector<net::NeighborEntry> empty_;
};

// --- reference moving zones ---------------------------------------------------

class ReferenceZones {
 public:
  ReferenceZones(const mobility::TrafficModel& traffic,
                 const ReferenceBeacons& beacons)
      : traffic_(traffic), beacons_(beacons) {}

  void update(SimTime now) {
    for (auto it = assignments_.begin(); it != assignments_.end();) {
      if (traffic_.find(VehicleId{it->first}) == nullptr) {
        it = assignments_.erase(it);
      } else {
        ++it;
      }
    }
    const auto& vehicles = traffic_.vehicles();
    std::unordered_map<std::uint64_t, std::uint64_t> parent;
    std::function<std::uint64_t(std::uint64_t)> find =
        [&](std::uint64_t x) -> std::uint64_t {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    for (const auto& [vid, v] : vehicles) parent[vid] = vid;
    for (const auto& [vid, v] : vehicles) {
      for (const net::NeighborEntry& n : beacons_.table(v.id)) {
        if (parent.find(n.id.value()) == parent.end()) continue;
        if (!compatible(v.vel, n.vel)) continue;
        const std::uint64_t ra = find(vid);
        const std::uint64_t rb = find(n.id.value());
        if (ra != rb) parent[ra] = rb;
      }
    }
    std::unordered_map<std::uint64_t, std::vector<VehicleId>> zones;
    for (const auto& [vid, v] : vehicles) zones[find(vid)].push_back(v.id);
    for (auto& [root, members] : zones) {
      geo::Vec2 centroid;
      for (const VehicleId m : members) centroid += vehicles.at(m.value()).pos;
      centroid = centroid / static_cast<double>(members.size());
      VehicleId captain;
      double best = 1e300;
      for (const VehicleId m : members) {
        double d = geo::distance(vehicles.at(m.value()).pos, centroid);
        auto cur = assignments_.find(m.value());
        if (cur != assignments_.end() &&
            cur->second.role == cluster::ClusterRole::kHead) {
          d -= config_.captain_hysteresis;
        }
        if (d < best || (d == best && m.value() < captain.value())) {
          best = d;
          captain = m;
        }
      }
      for (const VehicleId m : members) {
        auto& a = assignments_[m.value()];
        if (!(a.head == captain) || a.role == cluster::ClusterRole::kFree) {
          a.head_since = now;
        }
        a.head = captain;
        a.role = m == captain ? cluster::ClusterRole::kHead
                              : cluster::ClusterRole::kMember;
      }
    }
  }

  [[nodiscard]] const std::unordered_map<std::uint64_t,
                                         cluster::ClusterAssignment>&
  assignments() const {
    return assignments_;
  }

 private:
  [[nodiscard]] bool compatible(geo::Vec2 a, geo::Vec2 b) const {
    if (a.norm() < 0.5 && b.norm() < 0.5) return true;
    if (std::abs(a.norm() - b.norm()) > config_.max_speed_diff) return false;
    return geo::angle_between(a, b) <= config_.max_angle_rad;
  }

  const mobility::TrafficModel& traffic_;
  const ReferenceBeacons& beacons_;
  cluster::MovingZoneConfig config_;
  std::unordered_map<std::uint64_t, cluster::ClusterAssignment> assignments_;
};

// --- comparison ---------------------------------------------------------------

using Row = std::tuple<std::uint64_t, double, double, double, double, SimTime>;

std::vector<Row> rows(const std::vector<net::NeighborEntry>& table) {
  std::vector<Row> out;
  for (const net::NeighborEntry& e : table) {
    out.emplace_back(e.id.value(), e.pos.x, e.pos.y, e.vel.x, e.vel.y,
                     e.last_heard);
  }
  return out;
}

using ZoneRow = std::tuple<std::uint64_t, std::uint64_t, int, SimTime>;

// In iteration order: downstream observers (cluster stability) walk the
// assignment map, so its order is part of the output.
std::vector<ZoneRow> zone_rows(
    const std::unordered_map<std::uint64_t, cluster::ClusterAssignment>& m) {
  std::vector<ZoneRow> out;
  for (const auto& [vid, a] : m) {
    out.emplace_back(vid, a.head.value(), static_cast<int>(a.role),
                     a.head_since);
  }
  return out;
}

struct RoundCounts {
  // Beacon rounds compared; the largest table seen; head roles summed over
  // every zone comparison.
  int rounds = 0;
  std::size_t max_table = 0;
  std::size_t heads = 0;
};

void expect_same_tables(core::Scenario& s, const ReferenceBeacons& ref,
                        RoundCounts& counts) {
  const SimTime now = s.simulator().now();
  net::Network& net = s.network();
  for (const auto& [vid, v] : s.traffic().vehicles()) {
    const auto& table = net.neighbors(v.id);
    EXPECT_EQ(rows(table), rows(ref.table(v.id)))
        << "vehicle " << vid << " at t=" << now;
    counts.max_table = std::max(counts.max_table, table.size());
  }
  // Tables of vehicles gone since are empty on both sides.
  for (const auto& [vid, table] : ref.tables()) {
    EXPECT_EQ(rows(net.neighbors(VehicleId{vid})), rows(table))
        << "vehicle " << vid << " at t=" << now;
  }
  Rng flat = net.rng();
  Rng keyed = ref.rng();
  EXPECT_TRUE(flat.engine() == keyed.engine()) << "RNG state at t=" << now;
  ++counts.rounds;
}

void expect_same_zones(core::Scenario& s, cluster::MovingZone& zones,
                       ReferenceZones& ref_zones, RoundCounts& counts) {
  const SimTime now = s.simulator().now();
  zones.update();
  ref_zones.update(now);
  EXPECT_EQ(zone_rows(zones.assignments()), zone_rows(ref_zones.assignments()))
      << "zones at t=" << now;
  for (const auto& [vid, a] : zones.assignments()) {
    counts.heads += a.role == cluster::ClusterRole::kHead;
  }
}

// Runs `rounds` beacon rounds of the scenario with the reference beside
// it. Zones are rebuilt right after each round and again half a period
// later, when live velocities have moved away from the beaconed ones.
// Every `despawn_every` rounds the lowest-id vehicle leaves, so tables and
// zones also see departures.
RoundCounts run_side_by_side(core::ScenarioConfig config, int rounds,
                             int despawn_every) {
  core::Scenario s(config);
  net::Network& net = s.network();
  cluster::MovingZone zones(net);
  // The network's stream is fork 3 of the scenario seed.
  ReferenceBeacons ref(s.traffic(), net.channel(), s.fork_rng(3), 3.0);
  ReferenceZones ref_zones(s.traffic(), ref);
  RoundCounts counts;

  const auto after_round = [&] {
    ref.round(s.simulator().now());
    expect_same_tables(s, ref, counts);
    expect_same_zones(s, zones, ref_zones, counts);
    if (despawn_every > 0 && counts.rounds % despawn_every == 0) {
      std::uint64_t lowest = UINT64_MAX;
      for (const auto& [vid, v] : s.traffic().vehicles()) {
        lowest = std::min(lowest, vid);
      }
      s.traffic().despawn(VehicleId{lowest});
    }
  };
  s.start();  // the first beacon round runs here
  after_round();
  // Scheduled after the beacon recurrence, so at every beacon instant the
  // check runs right after the round, before anything else moves.
  const SimTime period = config.beacon_period;
  s.simulator().schedule_every(period, after_round, -1.0, "test.round");
  s.simulator().schedule_every(
      period, [&] { expect_same_zones(s, zones, ref_zones, counts); },
      period / 2, "test.zones");
  s.run_for(period * (rounds - 1) + period / 4);
  return counts;
}

TEST(WorldRound, MovingCityMatchesKeyedReference) {
  core::ScenarioConfig config;
  config.vehicles = 400;
  config.seed = 11;
  const RoundCounts counts = run_side_by_side(config, 12, 4);
  EXPECT_EQ(counts.rounds, 12);
  EXPECT_GT(counts.max_table, 20u);  // dense enough to exercise the merge
  EXPECT_GT(counts.heads, 12u);
}

TEST(WorldRound, ParkedLotMatchesKeyedReference) {
  core::ScenarioConfig config;
  config.environment = core::Environment::kParkingLot;
  config.vehicles = 100;
  config.vehicles_parked = true;
  config.seed = 5;
  const RoundCounts counts = run_side_by_side(config, 20, 3);
  EXPECT_EQ(counts.rounds, 20);
  EXPECT_GT(counts.max_table, 20u);
  EXPECT_GT(counts.heads, 0u);
}

}  // namespace
}  // namespace vcl
