// Road network: a directed graph of intersections (nodes) and road links.
//
// Links are straight segments with a speed limit and lane count; vehicle
// positions are expressed as (link, longitudinal offset) and mapped to world
// coordinates for the radio model. Generators build the three environments
// used throughout the paper's scenarios: a Manhattan-style urban grid, a
// highway, and a parking lot (for stationary v-clouds).
#pragma once

#include <cstddef>
#include <optional>
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

  // Dijkstra shortest path (by travel time) from node `from` to node `to`;
  // returns the list of links, or nullopt when unreachable.
  [[nodiscard]] std::optional<std::vector<LinkId>> shortest_path(
      NodeId from, NodeId to) const;

  // Bounding box of all nodes; {0,0},{0,0} when empty.
  [[nodiscard]] std::pair<Vec2, Vec2> bounding_box() const;

 private:
  std::vector<RoadNode> nodes_;
  std::vector<RoadLink> links_;
  std::vector<Vec2> link_dirs_;  // by link id
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
