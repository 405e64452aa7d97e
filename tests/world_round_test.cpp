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
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "cluster/moving_zone.h"
#include "core/scenario.h"
#include "core/system.h"

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
        index_(net::Channel::kMaxRange) {}

  void round(SimTime now) {
    index_.clear();
    for (const auto& [vid, v] : traffic_.vehicles()) index_.insert(v.id, v.pos);

    const double range = net::Channel::kMaxRange;
    std::vector<VehicleId> nearby;
    // A departed vehicle keeps an empty table, so the comparison also
    // checks that the flat round empties it.
    for (auto& [vid, table] : tables_) {
      if (traffic_.find(VehicleId{vid}) == nullptr) table.clear();
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
          d -= kCaptainHysteresis;
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
    if (std::abs(a.norm() - b.norm()) > kMaxSpeedDiff) return false;
    return geo::angle_between(a, b) <= kMaxAngleRad;
  }

  // cluster::MovingZone's rules.
  static constexpr double kMaxSpeedDiff = 6.0;
  static constexpr double kMaxAngleRad = 0.6;
  static constexpr double kCaptainHysteresis = 30.0;

  const mobility::TrafficModel& traffic_;
  const ReferenceBeacons& beacons_;
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
  // every zone comparison; whether any comparison found a reception plan
  // held.
  int rounds = 0;
  std::size_t max_table = 0;
  std::size_t heads = 0;
  bool plan_held = false;
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
  counts.plan_held = counts.plan_held || net.has_reception_plan();
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

// Both sides of a run, for the hook that changes the world between rounds.
struct Sides {
  core::Scenario& s;
  ReferenceBeacons& ref;
  RoundCounts& counts;

  // An extra round on both sides at the current instant, compared like a
  // beacon round.
  void refresh() {
    s.network().refresh();
    ref.round(s.simulator().now());
    expect_same_tables(s, ref, counts);
  }
};

// Called after beacon round `round` (1-based) is compared.
using Between = std::function<void(int round, Sides& sides)>;

void despawn_lowest(core::Scenario& s) {
  std::uint64_t lowest = UINT64_MAX;
  for (const auto& [vid, v] : s.traffic().vehicles()) {
    lowest = std::min(lowest, vid);
  }
  s.traffic().despawn(VehicleId{lowest});
}

Between despawn_every(int n) {
  return [n](int round, Sides& sides) {
    if (round % n == 0) despawn_lowest(sides.s);
  };
}

// Runs `rounds` beacon rounds of the scenario with the reference beside
// it. Zones are rebuilt right after each round and again half a period
// later, when live velocities have moved away from the beaconed ones.
// `between` runs after each round's comparison, so its changes reach the
// next round.
RoundCounts run_side_by_side(core::ScenarioConfig config, int rounds,
                             const Between& between) {
  core::Scenario s(config);
  net::Network& net = s.network();
  cluster::MovingZone zones(net);
  // The network's stream is fork 3 of the scenario seed.
  ReferenceBeacons ref(s.traffic(), net.channel(), s.fork_rng(3), 3.0);
  ReferenceZones ref_zones(s.traffic(), ref);
  RoundCounts counts;
  Sides sides{s, ref, counts};
  int round = 0;

  const auto after_round = [&] {
    ref.round(s.simulator().now());
    expect_same_tables(s, ref, counts);
    expect_same_zones(s, zones, ref_zones, counts);
    between(++round, sides);
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
  std::size_t replays = 0;
  const RoundCounts counts =
      run_side_by_side(config, 12, [&](int round, Sides& sides) {
        replays = sides.s.network().stats().beacon_replays;
        despawn_every(4)(round, sides);
      });
  EXPECT_EQ(counts.rounds, 12);
  EXPECT_GT(counts.max_table, 20u);  // dense enough to exercise the merge
  EXPECT_GT(counts.heads, 12u);
  // A moving world never holds a reception plan.
  EXPECT_EQ(replays, 0u);
  EXPECT_FALSE(counts.plan_held);
}

// A moving city big enough that one round spans many more chunks of rows
// than the helpers' ring holds (16 receivers a chunk, 4 slots), so on a
// host with more than one CPU its rows come through the ring. Every input
// of the rows changes once: a blackout comes and goes and a vehicle leaves.
TEST(WorldRound, LargeMovingCityMatchesKeyedReference) {
  core::ScenarioConfig config;
  config.grid_rows = 12;
  config.grid_cols = 12;
  config.vehicles = 1200;
  config.seed = 13;
  constexpr int kRounds = 8;
  std::size_t min_vehicles = SIZE_MAX;
  std::uint64_t blackout = 0;
  std::size_t blacked_out = 0;
  const RoundCounts counts =
      run_side_by_side(config, kRounds, [&](int round, Sides& sides) {
        net::Network& net = sides.s.network();
        const auto& vehicles = sides.s.traffic().vehicles();
        min_vehicles = std::min(min_vehicles, vehicles.size());
        if (round == 2) {
          const geo::Vec2 center = vehicles.begin()->second.pos;
          blackout = net.channel().add_blackout({center, 400.0});
          for (const auto& [vid, v] : vehicles) {
            blacked_out += net.channel().blacked_out(v.pos);
          }
        }
        if (round == 4) net.channel().remove_blackout(blackout);
        if (round == 6) despawn_lowest(sides.s);
      });
  EXPECT_EQ(counts.rounds, kRounds);
  EXPECT_GE(min_vehicles, 1000u);
  EXPECT_GT(counts.max_table, 20u);
  EXPECT_GT(blacked_out, 0u);
  EXPECT_LT(blacked_out, min_vehicles);
  EXPECT_FALSE(counts.plan_held);
}

// Two worlds above the size floor step at once on two threads, so their
// rounds share the process's helper threads. Each must still match its own
// keyed reference.
TEST(WorldRound, ConcurrentWorldsMatchTheirKeyedReferences) {
  std::vector<RoundCounts> counts(2);
  std::vector<std::thread> worlds;
  for (std::size_t w = 0; w < counts.size(); ++w) {
    worlds.emplace_back([&counts, w] {
      core::ScenarioConfig config;
      config.vehicles = 400;
      config.seed = 21 + w;
      counts[w] = run_side_by_side(config, 6, despawn_every(3));
    });
  }
  for (std::thread& t : worlds) t.join();
  for (const RoundCounts& c : counts) {
    EXPECT_EQ(c.rounds, 6);
    EXPECT_GT(c.max_table, 20u);
  }
}

TEST(WorldRound, ParkedLotMatchesKeyedReference) {
  core::ScenarioConfig config;
  config.environment = core::Environment::kParkingLot;
  config.vehicles = 100;
  config.vehicles_parked = true;
  config.seed = 5;
  const RoundCounts counts = run_side_by_side(config, 20, despawn_every(3));
  EXPECT_EQ(counts.rounds, 20);
  EXPECT_GT(counts.max_table, 20u);
  EXPECT_GT(counts.heads, 0u);
}

// A parked lot replays its reception plan while nothing changes. Every
// input of the plan's key changes (a blackout comes and goes, a second one
// comes, a vehicle leaves), and the round after each change must compute
// afresh and still match the reference.
TEST(WorldRound, ParkedLotReplayMatchesKeyedReference) {
  core::ScenarioConfig config;
  config.environment = core::Environment::kParkingLot;
  config.vehicles = 100;
  config.vehicles_parked = true;
  config.seed = 7;
  constexpr int kRounds = 18;
  // replays_after[r]: the replay count after round r.
  std::vector<std::size_t> replays_after(1, 0);
  std::size_t beacon_rounds = 0;
  std::uint64_t blackout = 0;
  net::BlackoutRegion quarter;
  std::size_t blacked_out = 0;
  const RoundCounts counts =
      run_side_by_side(config, kRounds, [&](int round, Sides& sides) {
        net::Network& net = sides.s.network();
        replays_after.push_back(net.stats().beacon_replays);
        beacon_rounds = net.stats().beacon_rounds;
        if (round == 5) {
          // Black out the quarter of the lot nearest one vehicle.
          std::vector<geo::Vec2> pos;
          for (const auto& [vid, v] : sides.s.traffic().vehicles()) {
            pos.push_back(v.pos);
          }
          const geo::Vec2 center = pos.front();
          std::vector<double> dist;
          for (const geo::Vec2 p : pos) {
            dist.push_back(geo::distance(p, center));
          }
          std::nth_element(dist.begin(), dist.begin() + 25, dist.end());
          quarter = {center, dist[25]};
          blackout = net.channel().add_blackout(quarter);
          for (const geo::Vec2 p : pos) {
            blacked_out += net.channel().blacked_out(p);
          }
        }
        if (round == 8) net.channel().remove_blackout(blackout);
        if (round == 11) {
          // The same quarter goes dark again, to the end of the run.
          net.channel().add_blackout(quarter);
          // Two extra rounds at one instant: neither replays (the key
          // changed, then the world did not hold still for a period), and
          // neither records.
          for (int i = 0; i < 2; ++i) {
            sides.refresh();
            EXPECT_EQ(net.stats().beacon_replays, replays_after[11]);
            EXPECT_FALSE(net.has_reception_plan());
          }
        }
        if (round == 14) despawn_lowest(sides.s);
      });
  EXPECT_EQ(counts.rounds, kRounds + 2);
  EXPECT_GT(counts.max_table, 20u);
  EXPECT_GT(blacked_out, 0u);
  EXPECT_LT(blacked_out, 100u);

  ASSERT_EQ(replays_after.size(), static_cast<std::size_t>(kRounds + 1));
  const auto replayed = [&](int r) {
    return replays_after[r] > replays_after[r - 1];
  };
  // Round 1 is set-up (t=0); round 2 records; a recorded plan replays from
  // the round after. A change computes, the round after it records.
  const std::vector<int> computed = {1, 2, 6, 7, 9, 10, 12, 15, 16};
  for (int r = 1; r <= kRounds; ++r) {
    const bool fresh =
        std::find(computed.begin(), computed.end(), r) != computed.end();
    EXPECT_EQ(replayed(r), !fresh) << "round " << r;
  }
  EXPECT_EQ(beacon_rounds, static_cast<std::size_t>(kRounds + 2));
}

// --- set-up pin --------------------------------------------------------------

// FNV-1a over the bytes of the values folded in.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ull;
    }
  }
  void add(const geo::Vec2 v) {
    add(v.x);
    add(v.y);
  }
  void add(const std::vector<LinkId>& links) {
    add(links.size());
    for (const LinkId l : links) add(l.value());
  }
  [[nodiscard]] std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof(out), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return out;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// The fleet, its neighbour tables and the zone assignments, in id order.
void add_world(Digest& d, core::VehicularCloudSystem& system) {
  core::Scenario& s = system.scenario();
  const std::map<std::uint64_t, const mobility::VehicleState*> fleet = [&] {
    std::map<std::uint64_t, const mobility::VehicleState*> m;
    for (const auto& [vid, v] : s.traffic().vehicles()) m[vid] = &v;
    return m;
  }();
  d.add(fleet.size());
  for (const auto& [vid, v] : fleet) {
    d.add(vid);
    d.add(v->link.value());
    d.add(v->lane);
    d.add(v->offset);
    d.add(v->speed);
    d.add(v->accel);
    d.add(v->route);
    d.add(v->route_index);
    d.add(v->speed_factor);
    d.add(v->automation);
    d.add(v->pos);
    d.add(v->vel);
    const auto& table = s.network().neighbors(VehicleId{vid});
    d.add(table.size());
    for (const net::NeighborEntry& e : table) {
      d.add(e.id.value());
      d.add(e.pos);
      d.add(e.vel);
      d.add(e.last_heard);
    }
  }
  const std::map<std::uint64_t, cluster::ClusterAssignment> zones(
      system.clusters().assignments().begin(),
      system.clusters().assignments().end());
  d.add(zones.size());
  for (const auto& [vid, a] : zones) {
    d.add(vid);
    d.add(a.head.value());
    d.add(a.role);
    d.add(a.head_since);
  }
}

// The fabric's stream, through four draws of a copy of it.
void add_fabric_rng(Digest& d, core::VehicularCloudSystem& system) {
  Rng fabric = system.scenario().network().rng();
  for (int i = 0; i < 4; ++i) d.add(fabric.engine()());
}

// Set-up of a city above both helper floors (a prefill of over 1024
// searches, beacon rounds of over 256 receivers), so on a host with more
// than one CPU its route searches and reception rows come through the
// helpers' rings. Its digests were recorded from the build before
// set-up's helped rounds let the calling thread produce chunks ahead; they
// hold with any number of helpers. "start" covers the state right after
// start(): the fleet, the neighbour tables, the zone assignments and the
// fabric's stream, then the trip stream through two routes it draws.
// "run_1s" covers the world a simulated second later, whose lane changes
// draw from the traffic stream.
TEST(SetUpPin, HelpedCitySetUpMatchesRecordedDigests) {
  std::map<std::string, std::string> recorded;
  {
    std::ifstream in(VCL_TEST_DATA_DIR "/setup_pin.txt");
    ASSERT_TRUE(in) << "missing " VCL_TEST_DATA_DIR "/setup_pin.txt";
    std::string name, hex;
    while (in >> name >> hex) recorded[name] = hex;
  }
  core::SystemConfig config;
  config.scenario.grid_rows = 16;
  config.scenario.grid_cols = 16;
  config.scenario.vehicles = 1400;
  config.scenario.seed = 29;
  config.scenario.rsu_spacing = 600.0;
  config.architecture = core::CloudArchitecture::kInfrastructureBased;
  core::VehicularCloudSystem system(config);
  system.start();
  ASSERT_EQ(system.scenario().traffic().vehicle_count(), 1400u);

  Digest start;
  add_world(start, system);
  add_fabric_rng(start, system);
  for (int i = 0; i < 2; ++i) start.add(system.scenario().trips().random_route());
  EXPECT_EQ(start.hex(), recorded["start"]);

  system.run_for(1.0);
  Digest run;
  add_world(run, system);
  add_fabric_rng(run, system);
  EXPECT_EQ(run.hex(), recorded["run_1s"]);
}

// --- t=0 world frame ------------------------------------------------------------

// A recorded expected violation. The prefill sets each vehicle's offset
// after spawn placed it at its link's start, and the first beacon round
// runs before any mobility step, so at start() every prefilled vehicle's
// world position is still its link's start. The t=0 neighbour tables see
// the fleet bunched there. Placing vehicles at their offsets changes every
// output; when that lands, this count becomes 0.
TEST(WorldFrame, PrefilledPositionsLagTheirOffsetsAtStart) {
  core::ScenarioConfig config;
  config.grid_rows = 12;
  config.grid_cols = 12;
  config.vehicles = 400;
  core::Scenario s(config);
  s.start();
  std::size_t stale = 0;
  for (const auto& [vid, v] : s.traffic().vehicles()) {
    const geo::Vec2 at = s.road().position_on_link(v.link, v.offset);
    stale += at.x != v.pos.x || at.y != v.pos.y;
  }
  EXPECT_EQ(s.traffic().vehicle_count(), 400u);
  EXPECT_EQ(stale, 400u);
}

}  // namespace
}  // namespace vcl
