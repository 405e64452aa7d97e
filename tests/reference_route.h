// Reference fastest-path search for the route tests: plain early-exit
// Dijkstra with strict `<` relaxation, the search geo::RouteSearch must
// reproduce link for link.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "geo/road_network.h"

namespace vcl::geo {

inline std::optional<std::vector<LinkId>> reference_shortest_path(
    const RoadNetwork& net, NodeId from, NodeId to) {
  const std::size_t n = net.node_count();
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
    for (const LinkId lid : net.nodes()[u].out_links) {
      const RoadLink& l = net.links()[lid.value()];
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
    at = net.links()[lid.value()].from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace vcl::geo
