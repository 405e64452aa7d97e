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
// only read, so many searches may share one const RoadNetwork.
#pragma once

#include <cstdint>
#include <optional>
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

  std::vector<Slot> slots_;  // by node id
  std::vector<Entry> heap_;
  std::uint32_t generation_ = 0;
};

}  // namespace vcl::geo
