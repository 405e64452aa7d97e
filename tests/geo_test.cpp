#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "geo/road_network.h"
#include "geo/route_search.h"
#include "geo/spatial_grid.h"
#include "geo/vec2.h"
#include "util/rng.h"
#include "reference_route.h"

namespace vcl::geo {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1, 2};
  const Vec2 b{3, -1};
  EXPECT_EQ((a + b), (Vec2{4, 1}));
  EXPECT_EQ((a - b), (Vec2{-2, 3}));
  EXPECT_EQ((a * 2.0), (Vec2{2, 4}));
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
}

TEST(Vec2, NormAndDistance) {
  EXPECT_DOUBLE_EQ((Vec2{3, 4}).norm(), 5.0);
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance2({0, 0}, {3, 4}), 25.0);
}

TEST(Vec2, NormalizedZeroIsZero) {
  const Vec2 z = Vec2{}.normalized();
  EXPECT_EQ(z, (Vec2{0, 0}));
  const Vec2 u = Vec2{10, 0}.normalized();
  EXPECT_NEAR(u.x, 1.0, 1e-12);
}

TEST(Vec2, AngleBetween) {
  EXPECT_NEAR(angle_between({1, 0}, {0, 1}), M_PI / 2, 1e-12);
  EXPECT_NEAR(angle_between({1, 0}, {-1, 0}), M_PI, 1e-12);
  EXPECT_NEAR(angle_between({1, 0}, {2, 0}), 0.0, 1e-12);
}

// Property: grid query must agree exactly with brute force.
TEST(SpatialGrid, MatchesBruteForce) {
  Rng rng(7);
  SpatialGrid grid(50.0);
  std::vector<Vec2> pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back({rng.uniform(0, 1000), rng.uniform(0, 1000)});
  }
  grid.build(pts);
  std::vector<std::uint32_t> out;
  for (int trial = 0; trial < 50; ++trial) {
    const Vec2 c{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    const double r = rng.uniform(10, 300);
    grid.query(c, r, out);
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < pts.size(); ++i) {
      if (distance(pts[i], c) <= r) expected.push_back(i);
    }
    EXPECT_EQ(grid.count(c, r), out.size()) << "trial " << trial;
    std::sort(out.begin(), out.end());
    EXPECT_EQ(out, expected) << "trial " << trial;
  }
}

// The block bound: the most points in any 3x3 block of the points'
// bounding box of cells, counted by brute force; no query of radius
// cell_size around an indexed point returns more.
TEST(SpatialGrid, MaxBlockPointsBoundsQueriesAroundPoints) {
  Rng rng(11);
  constexpr double kCell = 50.0;
  SpatialGrid grid(kCell);
  EXPECT_EQ(grid.max_block_points(), 0u);
  std::vector<Vec2> pts;
  for (int i = 0; i < 400; ++i) {
    pts.push_back({rng.uniform(-300, 700), rng.uniform(0, 400)});
  }
  // A dense knot, as a fleet bunched at an intersection.
  for (int i = 0; i < 60; ++i) {
    pts.push_back({rng.uniform(100, 110), rng.uniform(195, 205)});
  }
  grid.build(pts);
  const auto cell = [](double v) {
    return static_cast<std::int64_t>(std::floor(v / kCell));
  };
  std::int64_t x_lo = INT64_MAX, x_hi = INT64_MIN;
  std::int64_t y_lo = INT64_MAX, y_hi = INT64_MIN;
  for (const Vec2 p : pts) {
    x_lo = std::min(x_lo, cell(p.x));
    x_hi = std::max(x_hi, cell(p.x));
    y_lo = std::min(y_lo, cell(p.y));
    y_hi = std::max(y_hi, cell(p.y));
  }
  std::size_t most = 0;
  for (std::int64_t cx = x_lo; cx <= x_hi; ++cx) {
    for (std::int64_t cy = y_lo; cy <= y_hi; ++cy) {
      std::size_t block = 0;
      for (const Vec2 q : pts) {
        block += std::abs(cell(q.x) - cx) <= 1 && std::abs(cell(q.y) - cy) <= 1;
      }
      most = std::max(most, block);
    }
  }
  EXPECT_EQ(grid.max_block_points(), most);
  EXPECT_GT(most, 60u);
  for (const Vec2 p : pts) {
    EXPECT_LE(grid.count(p, kCell), most);
  }
  grid.build({});
  EXPECT_EQ(grid.max_block_points(), 0u);
}

TEST(SpatialGrid, NegativeCoordinates) {
  SpatialGrid grid(10.0);
  grid.build({{-95, -95}, {-80, -80}});
  std::vector<std::uint32_t> out;
  grid.query({-94, -94}, 5.0, out);
  EXPECT_EQ(out, std::vector<std::uint32_t>{0});
}

TEST(SpatialGrid, ClearEmpties) {
  SpatialGrid grid(10.0);
  grid.build({{0, 0}});
  EXPECT_EQ(grid.size(), 1u);
  grid.build({});
  EXPECT_EQ(grid.size(), 0u);
  std::vector<std::uint32_t> out;
  grid.query({0, 0}, 100, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(grid.count({0, 0}, 100), 0u);
}

// Query order is a contract (beacon RNG draws follow it): cells by
// (floor(x / cell), floor(y / cell)), x outer and y inner, then build order
// within a cell. Points exactly on a boundary belong to the cell above it.
TEST(SpatialGrid, QueryOrderIsCellMajorThenBuildOrder) {
  SpatialGrid grid(10.0);
  const std::vector<Vec2> pts = {
      {0.0, 0.0},     // 0: cell (0, 0), on both boundaries
      {-10.0, 5.0},   // 1: cell (-1, 0), on the x boundary
      {-0.5, -10.0},  // 2: cell (-1, -1), on the y boundary
      {5.0, -0.5},    // 3: cell (0, -1)
      {-10.0, -10.0}, // 4: cell (-1, -1), corner
      {9.999, 9.999}, // 5: cell (0, 0)
      {10.0, 0.0},    // 6: cell (1, 0), on the x boundary
      {-3.0, 3.0},    // 7: cell (-1, 0)
      {0.0, -10.0},   // 8: cell (0, -1), on the y boundary
  };
  grid.build(pts);
  std::vector<std::uint32_t> out;
  grid.query({0.0, 0.0}, 100.0, out);
  const std::vector<std::uint32_t> expected = {
      2, 4,  // (-1, -1)
      1, 7,  // (-1, 0)
      3, 8,  // (0, -1)
      0, 5,  // (0, 0)
      6,     // (1, 0)
  };
  EXPECT_EQ(out, expected);

  // A radius that ends exactly on a point includes it; cells outside the
  // points' bounding box are skipped, not indexed out of range.
  grid.query({-20.0, -10.0}, 10.0, out);
  EXPECT_EQ(out, std::vector<std::uint32_t>{4});
  grid.query({500.0, -500.0}, 50.0, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(grid.count({0.0, 0.0}, 100.0), pts.size());

  // A rebuild replaces the set.
  grid.build({{-25.0, 0.0}});
  grid.query({0.0, 0.0}, 100.0, out);
  EXPECT_EQ(out, std::vector<std::uint32_t>{0});
}

TEST(RoadNetwork, ManhattanGridShape) {
  const RoadNetwork net = make_manhattan_grid(3, 4, 100.0);
  EXPECT_EQ(net.node_count(), 12u);
  // Horizontal: 3 rows * 3 gaps * 2 dirs; vertical: 2 gaps * 4 cols * 2 dirs.
  EXPECT_EQ(net.link_count(), static_cast<std::size_t>(3 * 3 * 2 + 2 * 4 * 2));
}

TEST(RoadNetwork, LinkGeometry) {
  RoadNetwork net;
  const NodeId a = net.add_node({0, 0});
  const NodeId b = net.add_node({100, 0});
  const LinkId l = net.add_link(a, b, 10.0);
  EXPECT_DOUBLE_EQ(net.link(l).length, 100.0);
  const Vec2 mid = net.position_on_link(l, 50.0);
  EXPECT_NEAR(mid.x, 50.0, 1e-9);
  const Vec2 dir = net.link_direction(l);
  EXPECT_NEAR(dir.x, 1.0, 1e-12);
  // Offsets clamp to the link.
  EXPECT_NEAR(net.position_on_link(l, 1000.0).x, 100.0, 1e-9);
}

TEST(RoadNetwork, LinkToUnknownNodeThrows) {
  RoadNetwork net;
  const NodeId a = net.add_node({0, 0});
  EXPECT_THROW(net.add_link(a, NodeId{1}, 10.0), std::out_of_range);
  EXPECT_THROW(net.add_link(NodeId{}, a, 10.0), std::out_of_range);
  EXPECT_EQ(net.link_count(), 0u);
}

TEST(RoadNetwork, ShortestPathOnGrid) {
  const RoadNetwork net = make_manhattan_grid(4, 4, 100.0);
  const NodeId from{0};
  const NodeId to{15};  // opposite corner
  const auto path = net.shortest_path(from, to);
  ASSERT_TRUE(path.has_value());
  // Manhattan distance: 3 + 3 = 6 links.
  EXPECT_EQ(path->size(), 6u);
  // The path is connected.
  NodeId at = from;
  for (const LinkId lid : *path) {
    EXPECT_EQ(net.link(lid).from, at);
    at = net.link(lid).to;
  }
  EXPECT_EQ(at, to);
}

TEST(RoadNetwork, ShortestPathUnreachable) {
  RoadNetwork net;
  const NodeId a = net.add_node({0, 0});
  const NodeId b = net.add_node({100, 0});
  net.add_link(a, b, 10.0);  // one-way a->b only
  EXPECT_TRUE(net.shortest_path(a, b).has_value());
  EXPECT_FALSE(net.shortest_path(b, a).has_value());
}

TEST(RoadNetwork, ShortestPathPrefersFasterRoad) {
  RoadNetwork net;
  const NodeId a = net.add_node({0, 0});
  const NodeId b = net.add_node({100, 0});
  const NodeId c = net.add_node({50, 50});
  net.add_link(a, b, 5.0);   // direct but slow: 20 s
  const LinkId l1 = net.add_link(a, c, 50.0);
  const LinkId l2 = net.add_link(c, b, 50.0);  // detour ~141 m at 50: ~2.8 s
  const auto path = net.shortest_path(a, b);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<LinkId>{l1, l2}));
}

TEST(RoadNetwork, HighwayHasUturns) {
  const RoadNetwork net = make_highway(2000.0, 500.0);
  // Every node can reach every other node thanks to end U-turns.
  const auto path = net.shortest_path(NodeId{1}, NodeId{0});
  EXPECT_TRUE(path.has_value());
}

TEST(RoadNetwork, BoundingBox) {
  const RoadNetwork net = make_manhattan_grid(2, 3, 100.0);
  const auto [lo, hi] = net.bounding_box();
  EXPECT_EQ(lo, (Vec2{0, 0}));
  EXPECT_EQ(hi, (Vec2{200, 100}));
}

TEST(RoadNetwork, ParkingLotIsSlow) {
  const RoadNetwork net = make_parking_lot(3, 3);
  for (const auto& l : net.links()) EXPECT_LE(l.speed_limit, 5.0);
}

// ---- Route search ----------------------------------------------------------

using Route = std::optional<std::vector<LinkId>>;

// A jittered grid of `side` x `side` intersections with mixed speed limits,
// one-way streets, some diagonals and some doubled links of equal cost, plus
// a source node (out-links only) and a sink node (in-links only), so that
// some pairs are unreachable.
RoadNetwork make_perturbed_grid(int side, std::uint64_t seed) {
  Rng rng(seed);
  RoadNetwork net;
  std::vector<NodeId> at;
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      at.push_back(net.add_node(
          {c * 200.0 + rng.uniform(-60.0, 60.0),
           r * 200.0 + rng.uniform(-60.0, 60.0)}));
    }
  }
  constexpr std::array<double, 5> kSpeeds = {8.3, 13.9, 16.7, 22.2, 30.6};
  const auto street = [&](NodeId a, NodeId b) {
    const double v = kSpeeds[rng.index(kSpeeds.size())];
    const double kind = rng.uniform();
    if (kind < 0.85) net.add_link(a, b, v);
    if (kind >= 0.7) net.add_link(b, a, v);
    if (rng.bernoulli(0.05)) net.add_link(a, b, v);  // an equal-cost twin
  };
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      const NodeId here = at[r * side + c];
      if (c + 1 < side) street(here, at[r * side + c + 1]);
      if (r + 1 < side) street(here, at[(r + 1) * side + c]);
      if (c + 1 < side && r + 1 < side && rng.bernoulli(0.1)) {
        street(here, at[(r + 1) * side + c + 1]);
      }
    }
  }
  const NodeId source = net.add_node({-150.0, -150.0});
  net.add_link(source, at.front(), 13.9);
  const NodeId sink = net.add_node({side * 200.0, side * 200.0});
  net.add_link(at.back(), sink, 13.9);
  return net;
}

// Every ordered pair, from == to included.
void expect_all_pairs_match(const RoadNetwork& net, RouteSearch& search) {
  for (std::uint64_t a = 0; a < net.node_count(); ++a) {
    for (std::uint64_t b = 0; b < net.node_count(); ++b) {
      ASSERT_EQ(search.find(net, NodeId{a}, NodeId{b}),
                reference_shortest_path(net, NodeId{a}, NodeId{b}))
          << "from " << a << " to " << b;
    }
  }
}

// `pairs` seeded random pairs, every 100th with from == to. Returns how many
// were unreachable.
int expect_seeded_pairs_match(const RoadNetwork& net, RouteSearch& search,
                              int pairs, std::uint64_t seed) {
  Rng rng(seed);
  int unreachable = 0;
  for (int i = 0; i < pairs; ++i) {
    const NodeId from{rng.index(net.node_count())};
    const NodeId to = i % 100 == 0 ? from : NodeId{rng.index(net.node_count())};
    const Route want = reference_shortest_path(net, from, to);
    const Route got = search.find(net, from, to);
    EXPECT_EQ(got, want) << "from " << from << " to " << to;
    if (got != want) break;
    if (!want) ++unreachable;
  }
  return unreachable;
}

TEST(RouteSearch, UnknownNodeThrows) {
  const RoadNetwork net = make_manhattan_grid(3, 3, 100.0);
  RouteSearch search;
  EXPECT_THROW((void)search.find(net, NodeId{}, NodeId{0}), std::out_of_range);
  EXPECT_THROW((void)search.find(net, NodeId{0}, NodeId{}), std::out_of_range);
  EXPECT_THROW((void)search.find(net, NodeId{9}, NodeId{0}), std::out_of_range);
  EXPECT_THROW((void)search.find(net, NodeId{0}, NodeId{9}), std::out_of_range);
  EXPECT_THROW((void)net.shortest_path(NodeId{}, NodeId{0}), std::out_of_range);
  EXPECT_THROW((void)net.shortest_path(NodeId{0}, NodeId{9}), std::out_of_range);
  // A refused query leaves the workspace usable.
  EXPECT_EQ(search.find(net, NodeId{0}, NodeId{8}),
            reference_shortest_path(net, NodeId{0}, NodeId{8}));
}

TEST(RouteSearch, MatchesDijkstraOnEveryPairOfSmallNetworks) {
  RouteSearch search;
  for (const RoadNetwork& net :
       {make_manhattan_grid(6, 6, 200.0), make_parking_lot(5, 8),
        make_highway(5000.0)}) {
    ASSERT_TRUE(RouteSearch::goal_directed_is_exact(net));
    expect_all_pairs_match(net, search);
  }
}

TEST(RouteSearch, MatchesDijkstraOnSeededPairsOfLargeGrid) {
  const RoadNetwork net = make_manhattan_grid(35, 35, 200.0);
  ASSERT_TRUE(RouteSearch::goal_directed_is_exact(net));
  RouteSearch search;
  EXPECT_EQ(expect_seeded_pairs_match(net, search, 20000, 11), 0);
}

TEST(RouteSearch, MatchesDijkstraOnSeededPairsOfPerturbedGrid) {
  const RoadNetwork net = make_perturbed_grid(30, 5);
  ASSERT_TRUE(RouteSearch::goal_directed_is_exact(net));
  RouteSearch search;
  EXPECT_GT(expect_seeded_pairs_match(net, search, 20000, 12), 0);
}

// Zero-length links break the argument that makes A* exact: Dijkstra then
// settles B before A although both are 10 s away, and keeps B -> T, where
// the tie rule would pick A -> T. The search must fall back to Dijkstra.
TEST(RouteSearch, ZeroLengthLinkFallsBackToDijkstra) {
  RoadNetwork net;
  const NodeId s = net.add_node({0, 0});
  const NodeId a = net.add_node({100, 0});
  const NodeId b = net.add_node({100, 0});
  const NodeId t = net.add_node({200, 0});
  const LinkId sb = net.add_link(s, b, 10.0);
  net.add_link(b, a, 10.0);  // zero length
  const LinkId bt = net.add_link(b, t, 10.0);
  net.add_link(a, t, 10.0);
  EXPECT_FALSE(RouteSearch::goal_directed_is_exact(net));
  RouteSearch search;
  EXPECT_EQ(search.find(net, s, t), (std::vector<LinkId>{sb, bt}));
  expect_all_pairs_match(net, search);
}

// A link whose slack is lost in rounding against the network's scale also
// turns the heuristic off.
TEST(RouteSearch, TooShortLinkFallsBackToDijkstra) {
  RoadNetwork net = make_manhattan_grid(35, 35, 200.0);
  const NodeId near = net.add_node({0.5, 0.0});
  net.add_link(NodeId{0}, near, 13.9);
  net.add_link(near, NodeId{1}, 13.9);
  EXPECT_FALSE(RouteSearch::goal_directed_is_exact(net));
  RouteSearch search;
  EXPECT_EQ(expect_seeded_pairs_match(net, search, 2000, 13), 0);
}

TEST(RouteSearch, OneWorkspaceServesNetworksOfDifferentSizes) {
  const RoadNetwork large = make_manhattan_grid(35, 35, 200.0);
  const RoadNetwork small = make_manhattan_grid(6, 6, 200.0);
  const RoadNetwork perturbed = make_perturbed_grid(12, 21);
  RouteSearch search;
  Rng rng(14);
  for (int i = 0; i < 600; ++i) {
    const RoadNetwork& net = i % 3 == 0 ? small : (i % 3 == 1 ? large : perturbed);
    const NodeId from{rng.index(net.node_count())};
    const NodeId to{rng.index(net.node_count())};
    ASSERT_EQ(search.find(net, from, to), reference_shortest_path(net, from, to))
        << "query " << i;
  }
}

// Searches share one const network from several threads, each with its own
// workspace. Run under TSan, this keeps mutable state out of RoadNetwork.
TEST(RouteSearch, ThreadsShareOneConstNetwork) {
  const RoadNetwork net = make_manhattan_grid(35, 35, 200.0);
  constexpr int kThreads = 4;
  constexpr int kQueries = 300;
  std::vector<std::pair<NodeId, NodeId>> queries;
  std::vector<Route> want;
  Rng rng(15);
  for (int i = 0; i < kThreads * kQueries; ++i) {
    queries.emplace_back(NodeId{rng.index(net.node_count())},
                         NodeId{rng.index(net.node_count())});
    want.push_back(
        reference_shortest_path(net, queries.back().first, queries.back().second));
  }
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RouteSearch search;
      for (int i = t * kQueries; i < (t + 1) * kQueries; ++i) {
        if (search.find(net, queries[i].first, queries[i].second) != want[i]) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches, std::vector<int>(kThreads, 0));
}

}  // namespace
}  // namespace vcl::geo
