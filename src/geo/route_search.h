// Fastest-path search over a road network, on a reusable workspace.
//
// One algorithm serves every route: A* with a straight-line/top-speed
// heuristic and Dijkstra's tie rule, so it returns exactly the links a plain
// Dijkstra search returns (DESIGN.md §4 "Route search"). On a network where
// that argument does not hold (a zero-length link, or a link too short for
// the heuristic's slack to survive rounding) the same loop runs with a zero
// heuristic, which is Dijkstra itself.
//
// The workspace keeps generation-stamped per-node slots and the heap, so a
// search allocates nothing and fills nothing O(V) beyond its first use on a
// network of that size. A RouteSearch belongs to one thread; the network is
// only read, so many searches may share one const RoadNetwork. After
// reserve(net), find_into on `net` allocates nothing at all, so it may run
// where allocation is not allowed (a helped round's helper threads).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geo/road_network.h"

namespace vcl::geo {

class RouteSearch {
 public:
  // Fastest path by travel time from `from` to `to`: its links in order (none
  // when from == to), or nullopt when `to` is unreachable. Throws
  // std::out_of_range for a node `net` does not have.
  [[nodiscard]] std::optional<std::vector<LinkId>> find(const RoadNetwork& net,
                                                        NodeId from, NodeId to);
  // find() into caller storage: the path's link count, or nullopt when `to`
  // is unreachable. The links are written to the front of `out` only when
  // they fit; otherwise `out` is left as it was.
  [[nodiscard]] std::optional<std::size_t> find_into(const RoadNetwork& net,
                                                     NodeId from, NodeId to,
                                                     std::span<LinkId> out);
  // Sizes the workspace for any search on `net`.
  void reserve(const RoadNetwork& net);

  // True when goal-directed search on `net` provably returns Dijkstra's path;
  // otherwise find() runs with a zero heuristic.
  [[nodiscard]] static bool goal_directed_is_exact(const RoadNetwork& net);

 private:
  struct Slot {
    double g = 0.0;          // best travel time from `from` found so far
    double h = 0.0;          // lower bound on the travel time left to `to`
    std::uint64_t via = 0;   // link that reached the node at g
    std::uint64_t pred = 0;  // that link's tail node
    std::uint32_t seen = 0;    // generation whose search reached the node
    std::uint32_t closed = 0;  // generation whose search settled it
  };
  struct Entry {
    double f;  // g + h when pushed
    std::uint64_t node;
  };

  // Runs the search; true when it reached `to`, whose path then follows
  // the `pred` chain back to `from`.
  bool search(const RoadNetwork& net, NodeId from, NodeId to);
  [[nodiscard]] std::size_t path_links(NodeId from, NodeId to) const;
  // Writes the path's links, which must number exactly out.size().
  void write_path(NodeId from, NodeId to, std::span<LinkId> out) const;

  std::vector<Slot> slots_;  // by node id
  std::vector<Entry> heap_;
  std::uint32_t generation_ = 0;
};

}  // namespace vcl::geo
