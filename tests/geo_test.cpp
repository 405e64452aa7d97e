#include <gtest/gtest.h>

#include "geo/road_network.h"
#include "geo/spatial_grid.h"
#include "geo/vec2.h"
#include "util/rng.h"

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

}  // namespace
}  // namespace vcl::geo
