// Reference prefill for the trip-generator tests: the serial loop that
// mobility::TripGenerator::prefill must reproduce vehicle for vehicle. It
// draws from the same RNG in the same order and searches every route on
// the calling thread with the reference Dijkstra.
#pragma once

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "mobility/traffic.h"
#include "mobility/trip_generator.h"
#include "reference_route.h"
#include "util/rng.h"

namespace vcl::mobility {

// A route from a random origin: up to 32 (origin, dest) pairs, dest ==
// origin redrawn, until a path of at least kMinTripLinks links is found.
inline std::vector<LinkId> reference_random_route(const geo::RoadNetwork& net,
                                                  Rng& rng) {
  if (net.node_count() < 2) return {};
  for (int attempt = 0; attempt < 32; ++attempt) {
    const NodeId origin{static_cast<std::uint64_t>(rng.index(net.node_count()))};
    const NodeId dest{static_cast<std::uint64_t>(rng.index(net.node_count()))};
    if (dest == origin) continue;
    auto path = geo::reference_shortest_path(net, origin, dest);
    if (path && path->size() >= TripGenerator::kMinTripLinks) {
      return std::move(*path);
    }
  }
  return {};
}

inline AutomationLevel reference_automation(const std::vector<double>& w,
                                            Rng& rng) {
  double r = rng.uniform(0.0, std::accumulate(w.begin(), w.end(), 0.0));
  for (std::size_t i = 0; i < w.size(); ++i) {
    r -= w[i];
    if (r <= 0.0) return static_cast<AutomationLevel>(i);
  }
  return AutomationLevel::kConditionalAutomation;
}

// Spawns vehicles into `traffic` up to the target population, drawing from
// `rng`; stops early when a route draw finds nothing.
inline void reference_prefill(TrafficModel& traffic,
                              const TripGeneratorConfig& config, Rng& rng) {
  const auto& net = traffic.network();
  while (traffic.vehicle_count() <
         static_cast<std::size_t>(config.target_population)) {
    auto route = reference_random_route(net, rng);
    if (route.empty()) return;
    const double limit = net.link(route.front()).speed_limit;
    const double speed_factor = rng.uniform(0.85, 1.15);
    const AutomationLevel automation =
        reference_automation(config.automation_weights, rng);
    const double speed = rng.uniform(0.5, 0.9) * limit;
    const VehicleId id =
        traffic.spawn(std::move(route), speed, automation, speed_factor);
    if (VehicleState* v = traffic.find_mutable(id)) {
      v->offset = rng.uniform(0.0, net.link(v->link).length * 0.9);
    }
  }
}

}  // namespace vcl::mobility
