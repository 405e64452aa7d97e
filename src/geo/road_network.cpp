#include "geo/road_network.h"

#include <algorithm>

#include "geo/route_search.h"

namespace vcl::geo {

NodeId RoadNetwork::add_node(Vec2 pos) {
  const NodeId id{nodes_.size()};
  if (nodes_.empty()) {
    lo_ = hi_ = pos;
  } else {
    lo_.x = std::min(lo_.x, pos.x);
    lo_.y = std::min(lo_.y, pos.y);
    hi_.x = std::max(hi_.x, pos.x);
    hi_.y = std::max(hi_.y, pos.y);
  }
  nodes_.push_back(RoadNode{id, pos, {}, {}});
  return id;
}

LinkId RoadNetwork::add_link(NodeId from, NodeId to, double speed_limit,
                             int lanes) {
  const Vec2 a = node(from).pos;  // std::out_of_range for an unknown node
  const Vec2 b = node(to).pos;
  const LinkId id{links_.size()};
  const double length = distance(a, b);
  const double speed = std::max(speed_limit, 0.1);
  const double time = length / speed;
  links_.push_back(RoadLink{id, from, to, length, speed_limit, lanes});
  link_dirs_.push_back((b - a).normalized());
  link_heads_.push_back(to);
  link_times_.push_back(time);
  top_speed_ = std::max(top_speed_, speed);
  min_link_time_ = std::min(min_link_time_, time);
  total_link_time_ += time;
  nodes_[from.value()].out_links.push_back(id);
  nodes_[to.value()].in_links.push_back(id);
  return id;
}

const RoadNode& RoadNetwork::node(NodeId id) const {
  return nodes_.at(id.value());
}

const RoadLink& RoadNetwork::link(LinkId id) const {
  return links_.at(id.value());
}

Vec2 RoadNetwork::position_on_link(LinkId id, double offset) const {
  const RoadLink& l = link(id);
  const Vec2 a = node(l.from).pos;
  const Vec2 b = node(l.to).pos;
  if (l.length <= 0.0) return a;
  const double t = std::clamp(offset / l.length, 0.0, 1.0);
  return a + (b - a) * t;
}

std::optional<std::vector<LinkId>> RoadNetwork::shortest_path(
    NodeId from, NodeId to) const {
  RouteSearch search;
  return search.find(*this, from, to);
}

RoadNetwork make_manhattan_grid(int rows, int cols, double spacing,
                                double speed_limit) {
  RoadNetwork net;
  std::vector<std::vector<NodeId>> grid(rows, std::vector<NodeId>(cols));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      grid[r][c] = net.add_node({c * spacing, r * spacing});
    }
  }
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        net.add_link(grid[r][c], grid[r][c + 1], speed_limit);
        net.add_link(grid[r][c + 1], grid[r][c], speed_limit);
      }
      if (r + 1 < rows) {
        net.add_link(grid[r][c], grid[r + 1][c], speed_limit);
        net.add_link(grid[r + 1][c], grid[r][c], speed_limit);
      }
    }
  }
  return net;
}

RoadNetwork make_highway(double length, double segment, double speed_limit,
                         int lanes) {
  RoadNetwork net;
  const int n_nodes = std::max(2, static_cast<int>(length / segment) + 1);
  std::vector<NodeId> east(n_nodes), west(n_nodes);
  const double step = length / (n_nodes - 1);
  for (int i = 0; i < n_nodes; ++i) {
    east[i] = net.add_node({i * step, 0.0});
    west[i] = net.add_node({i * step, 30.0});  // opposite carriageway
  }
  for (int i = 0; i + 1 < n_nodes; ++i) {
    net.add_link(east[i], east[i + 1], speed_limit, lanes);
    net.add_link(west[i + 1], west[i], speed_limit, lanes);
  }
  // U-turns at the ends keep trips alive for long simulations.
  net.add_link(east[n_nodes - 1], west[n_nodes - 1], speed_limit / 3, 1);
  net.add_link(west[0], east[0], speed_limit / 3, 1);
  return net;
}

RoadNetwork make_parking_lot(int rows, int cols, double spacing) {
  RoadNetwork net = make_manhattan_grid(rows, cols, spacing, 4.0 /* ~14 km/h */);
  return net;
}

}  // namespace vcl::geo
