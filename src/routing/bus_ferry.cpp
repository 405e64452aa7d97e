#include "routing/bus_ferry.h"

namespace vcl::routing {
namespace {

constexpr double kDeliveryRadius = 250.0;  // bus hands off this close to dst

}  // namespace

void BusRegistry::register_bus(VehicleId bus, std::vector<LinkId> loop) {
  loops_[bus.value()] = std::move(loop);
}

bool BusRegistry::is_bus(VehicleId v) const {
  return loops_.count(v.value()) != 0;
}

bool BusRegistry::route_covers(VehicleId bus, geo::Vec2 pos, double radius,
                               const geo::RoadNetwork& net) const {
  auto it = loops_.find(bus.value());
  if (it == loops_.end()) return false;
  for (const LinkId link : it->second) {
    // Sample the link coarsely; loops repeat, so checking distinct links
    // once would suffice, but loops are short and this is simple.
    const double len = net.link(link).length;
    for (double off = 0.0; off <= len; off += 100.0) {
      if (geo::distance(net.position_on_link(link, off), pos) <= radius) {
        return true;
      }
    }
  }
  return false;
}

std::vector<LinkId> build_loop_route(const geo::RoadNetwork& net,
                                     const std::vector<NodeId>& stops,
                                     int repetitions) {
  if (stops.size() < 2) return {};
  std::vector<LinkId> one_loop;
  for (std::size_t i = 0; i < stops.size(); ++i) {
    const NodeId from = stops[i];
    const NodeId to = stops[(i + 1) % stops.size()];
    const auto leg = net.shortest_path(from, to);
    if (!leg) return {};
    one_loop.insert(one_loop.end(), leg->begin(), leg->end());
  }
  std::vector<LinkId> route;
  route.reserve(one_loop.size() * static_cast<std::size_t>(repetitions));
  for (int r = 0; r < repetitions; ++r) {
    route.insert(route.end(), one_loop.begin(), one_loop.end());
  }
  return route;
}

void BusFerryRouting::forward(VehicleId self, const net::Message& msg) {
  const VehicleId dst = msg.dst.as_vehicle();
  // Direct delivery always wins.
  for (const net::NeighborEntry& n : net_.neighbors(self)) {
    if (n.id == dst) {
      if (send_to(self, msg.dst, msg)) return;
      break;
    }
  }
  if (!msg.has_dst_pos) {
    broadcast_from(self, msg);
    return;
  }
  const mobility::VehicleState* me = net_.traffic().find(self);
  if (me == nullptr) return;
  const double my_dist = geo::distance(me->pos, msg.dst_pos);

  // A carrying bus holds on until the destination area (its trajectory is
  // the plan; greedy hops off the bus would squander it) — unless a
  // neighbor makes direct final delivery possible above.
  if (buses_.is_bus(self) && my_dist > kDeliveryRadius) {
    buffer_message(self, msg);
    return;
  }

  // Greedy progress among ordinary neighbors.
  VehicleId best;
  double best_dist = my_dist;
  for (const net::NeighborEntry& n : net_.neighbors(self)) {
    const double d = geo::distance(n.pos, msg.dst_pos);
    if (d < best_dist) {
      best_dist = d;
      best = n.id;
    }
  }
  if (best.valid() && send_to(self, net::Address::vehicle(best), msg)) {
    return;
  }

  // Stalled: look for a bus whose published loop passes the destination.
  if (!buses_.is_bus(self)) {
    for (const net::NeighborEntry& n : net_.neighbors(self)) {
      if (!buses_.is_bus(n.id)) continue;
      if (!buses_.route_covers(n.id, msg.dst_pos, kDeliveryRadius,
                               net_.traffic().network())) {
        continue;
      }
      if (send_to(self, net::Address::vehicle(n.id), msg)) {
        ++handoffs_;
        return;
      }
    }
  }
  buffer_message(self, msg);
}

}  // namespace vcl::routing
