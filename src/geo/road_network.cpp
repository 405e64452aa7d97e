#include "geo/road_network.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>

namespace vcl::geo {

NodeId RoadNetwork::add_node(Vec2 pos) {
  const NodeId id{nodes_.size()};
  nodes_.push_back(RoadNode{id, pos, {}, {}});
  return id;
}

LinkId RoadNetwork::add_link(NodeId from, NodeId to, double speed_limit,
                             int lanes) {
  assert(from.value() < nodes_.size() && to.value() < nodes_.size());
  const LinkId id{links_.size()};
  const Vec2 a = nodes_[from.value()].pos;
  const Vec2 b = nodes_[to.value()].pos;
  links_.push_back(RoadLink{id, from, to, distance(a, b), speed_limit, lanes});
  link_dirs_.push_back((b - a).normalized());
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
  const std::size_t n = nodes_.size();
  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  std::vector<LinkId> via(n);  // link used to reach each node
  using QE = std::pair<double, std::uint64_t>;
  std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
  dist[from.value()] = 0.0;
  pq.push({0.0, from.value()});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    if (u == to.value()) break;
    for (const LinkId lid : nodes_[u].out_links) {
      const RoadLink& l = links_[lid.value()];
      const double cost = l.length / std::max(l.speed_limit, 0.1);
      const double nd = d + cost;
      if (nd < dist[l.to.value()]) {
        dist[l.to.value()] = nd;
        via[l.to.value()] = lid;
        pq.push({nd, l.to.value()});
      }
    }
  }
  if (!std::isfinite(dist[to.value()])) return std::nullopt;
  std::vector<LinkId> path;
  for (NodeId at = to; at != from;) {
    const LinkId lid = via[at.value()];
    path.push_back(lid);
    at = links_[lid.value()].from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::pair<Vec2, Vec2> RoadNetwork::bounding_box() const {
  if (nodes_.empty()) return {{}, {}};
  Vec2 lo = nodes_.front().pos;
  Vec2 hi = lo;
  for (const RoadNode& n : nodes_) {
    lo.x = std::min(lo.x, n.pos.x);
    lo.y = std::min(lo.y, n.pos.y);
    hi.x = std::max(hi.x, n.pos.x);
    hi.y = std::max(hi.y, n.pos.y);
  }
  return {lo, hi};
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
