// Bus-trajectory-based routing (after Sun et al. [36]: "bus
// trajectory-based street-centric routing for message delivery in urban
// VANETs").
//
// Buses run fixed, published loops — the one piece of future-proof
// knowledge a sparse network has. The router behaves greedily while
// progress is possible; when a carrier stalls it hands the message to a
// neighboring bus whose published trajectory passes near the destination;
// the bus carries it (ignoring greedy temptation) until the destination —
// or a vehicle near it — enters radio range. DTN-style ferrying with
// predictable ferries.
#pragma once

#include <unordered_map>

#include "routing/router.h"

namespace vcl::routing {

// Published bus trajectories: which streets each bus will visit, forever.
class BusRegistry {
 public:
  void register_bus(VehicleId bus, std::vector<LinkId> loop);

  [[nodiscard]] bool is_bus(VehicleId v) const;
  // Does the bus's published loop pass within `radius` of `pos`?
  [[nodiscard]] bool route_covers(VehicleId bus, geo::Vec2 pos, double radius,
                                  const geo::RoadNetwork& net) const;
  [[nodiscard]] std::size_t bus_count() const { return loops_.size(); }

 private:
  std::unordered_map<std::uint64_t, std::vector<LinkId>> loops_;
};

// Builds a cyclic route visiting `stops` in order, repeated `repetitions`
// times (buses need no arrival handler within the simulation horizon).
// Empty on unreachable stops.
std::vector<LinkId> build_loop_route(const geo::RoadNetwork& net,
                                     const std::vector<NodeId>& stops,
                                     int repetitions);

class BusFerryRouting final : public Router {
 public:
  // Ferrying is delay-tolerant: messages live for minutes (a bus ride),
  // not the seconds-scale lifetime of connected-path routing, and cross
  // long bus chains (64 hops).
  BusFerryRouting(net::Network& net, const BusRegistry& buses)
      : Router(net, 64, 900.0), buses_(buses) {}

  [[nodiscard]] const char* name() const override { return "bus_ferry"; }
  [[nodiscard]] std::size_t ferry_handoffs() const { return handoffs_; }

 protected:
  void forward(VehicleId self, const net::Message& msg) override;

 private:
  const BusRegistry& buses_;
  std::size_t handoffs_ = 0;
};

}  // namespace vcl::routing
