// Road network: a directed graph of intersections (nodes) and road links.
//
// Links are straight segments with a speed limit and lane count; vehicle
// positions are expressed as (link, longitudinal offset) and mapped to world
// coordinates for the radio model. Generators build the three environments
// used throughout the paper's scenarios: a Manhattan-style urban grid, a
// highway, and a parking lot (for stationary v-clouds).
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "geo/vec2.h"
#include "util/ids.h"

namespace vcl::geo {

struct RoadNode {
  NodeId id;
  Vec2 pos;
  std::vector<LinkId> out_links;
  std::vector<LinkId> in_links;
};

struct RoadLink {
  LinkId id;
  NodeId from;
  NodeId to;
  double length = 0.0;       // meters
  double speed_limit = 0.0;  // m/s
  int lanes = 1;
};

class RoadNetwork {
 public:
  NodeId add_node(Vec2 pos);
  // A straight link between two existing nodes; throws std::out_of_range
  // for a node the network does not have.
  LinkId add_link(NodeId from, NodeId to, double speed_limit, int lanes = 1);

  [[nodiscard]] const RoadNode& node(NodeId id) const;
  [[nodiscard]] const RoadLink& link(LinkId id) const;
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const std::vector<RoadNode>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<RoadLink>& links() const { return links_; }

  // World position at longitudinal offset along a link (clamped to length).
  [[nodiscard]] Vec2 position_on_link(LinkId id, double offset) const;
  // Unit direction of travel on a link (computed once, in add_link).
  [[nodiscard]] Vec2 link_direction(LinkId id) const {
    return link_dirs_.at(id.value());
  }

  // Per-link arrays by link id, recorded in add_link for route search: the
  // head node and the travel time at the speed limit,
  // length / max(speed_limit, 0.1).
  [[nodiscard]] const std::vector<NodeId>& link_heads() const {
    return link_heads_;
  }
  [[nodiscard]] const std::vector<double>& link_times() const {
    return link_times_;
  }
  // Over all links: the top speed max(speed_limit, 0.1) and the smallest and
  // summed travel time. 0, +inf and 0 with no links.
  [[nodiscard]] double top_speed() const { return top_speed_; }
  [[nodiscard]] double min_link_time() const { return min_link_time_; }
  [[nodiscard]] double total_link_time() const { return total_link_time_; }

  // Fastest path (by travel time) from node `from` to node `to`: the list of
  // links, or nullopt when unreachable. A one-shot geo::RouteSearch; callers
  // that search repeatedly keep their own. Throws std::out_of_range for a
  // node the network does not have.
  [[nodiscard]] std::optional<std::vector<LinkId>> shortest_path(
      NodeId from, NodeId to) const;

  // Bounding box of all nodes; {0,0},{0,0} when empty.
  [[nodiscard]] std::pair<Vec2, Vec2> bounding_box() const {
    return {lo_, hi_};
  }

 private:
  std::vector<RoadNode> nodes_;
  std::vector<RoadLink> links_;
  std::vector<Vec2> link_dirs_;  // by link id
  std::vector<NodeId> link_heads_;
  std::vector<double> link_times_;
  double top_speed_ = 0.0;
  double min_link_time_ = std::numeric_limits<double>::infinity();
  double total_link_time_ = 0.0;
  Vec2 lo_;  // bounding box, grown in add_node
  Vec2 hi_;
};

// ---- Generators -----------------------------------------------------------

// rows x cols intersections, `spacing` meters apart, bidirectional streets.
RoadNetwork make_manhattan_grid(int rows, int cols, double spacing,
                                double speed_limit = 13.9 /* 50 km/h */);

// Straight bidirectional highway of `length` meters with intermediate nodes
// every `segment` meters (vehicles can enter/exit at any node).
RoadNetwork make_highway(double length, double segment = 500.0,
                         double speed_limit = 33.3 /* 120 km/h */, int lanes = 3);

// Parking lot: `rows` aisles of `cols` stalls; all links very slow. Used for
// stationary v-clouds (vehicles mostly parked).
RoadNetwork make_parking_lot(int rows, int cols, double spacing = 20.0);

}  // namespace vcl::geo
