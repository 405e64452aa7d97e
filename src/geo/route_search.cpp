#include "geo/route_search.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace vcl::geo {
namespace {

// The heuristic is scaled by 1 - kSlack, so every link keeps a margin of
// kSlack times its travel time between f at its tail and f at its head.
constexpr double kSlack = 1e-9;

}  // namespace

bool RouteSearch::goal_directed_is_exact(const RoadNetwork& net) {
  if (net.link_count() == 0 || !(net.min_link_time() > 0.0)) return false;
  // Every g, h and f a search compares is at most `scale`, so each carries a
  // rounding error of a few ulps of it. The slack of the shortest link must
  // stay clear of 32 of them (the bound needs about 18).
  const auto [lo, hi] = net.bounding_box();
  const double scale =
      net.total_link_time() + distance(lo, hi) / net.top_speed();
  return net.min_link_time() * kSlack >
         32.0 * std::numeric_limits<double>::epsilon() * scale;
}

void RouteSearch::reserve(const RoadNetwork& net) {
  if (slots_.size() < net.node_count()) slots_.resize(net.node_count());
  // A node settles once and relaxes each of its links once, and only a
  // relaxation pushes: at most one entry per link besides the start.
  heap_.reserve(net.link_count() + 1);
}

bool RouteSearch::search(const RoadNetwork& net, NodeId from, NodeId to) {
  const std::size_t n = net.node_count();
  if (from.value() >= n || to.value() >= n) {
    throw std::out_of_range("RouteSearch::find: unknown node");
  }
  if (slots_.size() < n) slots_.resize(n);
  if (++generation_ == 0) {  // stamps wrapped: forget every old one
    for (Slot& s : slots_) s.seen = s.closed = 0;
    generation_ = 1;
  }
  const bool goal_directed = goal_directed_is_exact(net);
  const double h_per_meter =
      goal_directed ? (1.0 - kSlack) / net.top_speed() : 0.0;
  const auto& nodes = net.nodes();
  const auto& heads = net.link_heads();
  const auto& times = net.link_times();
  const Vec2 target = nodes[to.value()].pos;
  const auto reach = [&](std::uint64_t v) -> Slot& {
    Slot& s = slots_[v];
    if (s.seen != generation_) {
      s.seen = generation_;
      s.g = std::numeric_limits<double>::infinity();
      s.h = goal_directed ? distance(nodes[v].pos, target) * h_per_meter : 0.0;
    }
    return s;
  };
  // std heap functions build a max-heap; this order pops the smallest
  // (f, node) first.
  const auto pops_later = [](const Entry& a, const Entry& b) {
    return a.f > b.f || (a.f == b.f && a.node > b.node);
  };
  const auto push = [&](double f, std::uint64_t v) {
    heap_.push_back({f, v});
    std::push_heap(heap_.begin(), heap_.end(), pops_later);
  };

  heap_.clear();
  Slot& start = reach(from.value());
  start.g = 0.0;
  push(start.h, from.value());
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), pops_later);
    const std::uint64_t u = heap_.back().node;
    heap_.pop_back();
    Slot& su = slots_[u];
    if (su.closed == generation_) continue;  // a stale entry
    su.closed = generation_;
    if (u == to.value()) return true;
    const double gu = su.g;
    for (const LinkId lid : nodes[u].out_links) {
      const double nd = gu + times[lid.value()];
      const std::uint64_t v = heads[lid.value()].value();
      Slot& sv = reach(v);
      if (nd < sv.g) {
        sv.g = nd;
        sv.via = lid.value();
        sv.pred = u;
        push(nd + sv.h, v);
      } else if (goal_directed && nd == sv.g) {
        // Dijkstra's tie rule: Dijkstra settles nodes in (g, id) order and
        // keeps the first tight predecessor it settles, through that
        // predecessor's first tight link in out_links order.
        const double gp = slots_[sv.pred].g;
        if (gu < gp || (gu == gp && u < sv.pred)) {
          sv.via = lid.value();
          sv.pred = u;
        }
      }
    }
  }
  return false;
}

std::size_t RouteSearch::path_links(NodeId from, NodeId to) const {
  std::size_t links = 0;
  for (std::uint64_t at = to.value(); at != from.value(); at = slots_[at].pred) {
    ++links;
  }
  return links;
}

void RouteSearch::write_path(NodeId from, NodeId to,
                             std::span<LinkId> out) const {
  std::size_t links = out.size();
  for (std::uint64_t at = to.value(); at != from.value(); at = slots_[at].pred) {
    out[--links] = LinkId{slots_[at].via};
  }
}

std::optional<std::vector<LinkId>> RouteSearch::find(const RoadNetwork& net,
                                                     NodeId from, NodeId to) {
  if (!search(net, from, to)) return std::nullopt;
  // Count first, so the route a vehicle keeps holds no spare capacity.
  std::vector<LinkId> path(path_links(from, to));
  write_path(from, to, path);
  return path;
}

std::optional<std::size_t> RouteSearch::find_into(const RoadNetwork& net,
                                                  NodeId from, NodeId to,
                                                  std::span<LinkId> out) {
  if (!search(net, from, to)) return std::nullopt;
  const std::size_t links = path_links(from, to);
  if (links <= out.size()) write_path(from, to, out.first(links));
  return links;
}

}  // namespace vcl::geo
