#include "mobility/trip_generator.h"

#include <numeric>
#include <utility>

namespace vcl::mobility {

TripGenerator::TripGenerator(TrafficModel& traffic, TripGeneratorConfig config,
                             Rng rng)
    : traffic_(traffic), config_(std::move(config)), rng_(rng) {}

AutomationLevel TripGenerator::sample_automation() {
  const auto& w = config_.automation_weights;
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  double r = rng_.uniform(0.0, total);
  for (std::size_t i = 0; i < w.size(); ++i) {
    r -= w[i];
    if (r <= 0.0) return static_cast<AutomationLevel>(i);
  }
  return AutomationLevel::kConditionalAutomation;
}

std::vector<LinkId> TripGenerator::random_route(NodeId from) {
  const auto& net = traffic_.network();
  if (net.node_count() < 2) return {};
  for (int attempt = 0; attempt < 32; ++attempt) {
    const NodeId origin =
        from.valid() ? from : NodeId{static_cast<std::uint64_t>(rng_.index(
                                  net.node_count()))};
    const NodeId dest{static_cast<std::uint64_t>(rng_.index(net.node_count()))};
    if (dest == origin) continue;
    auto path = routes_.find(net, origin, dest);
    if (path && path->size() >= static_cast<std::size_t>(config_.min_trip_links)) {
      return std::move(*path);
    }
  }
  return {};
}

void TripGenerator::prefill() {
  while (traffic_.vehicle_count() <
         static_cast<std::size_t>(config_.target_population)) {
    auto route = random_route();
    if (route.empty()) return;
    const auto& net = traffic_.network();
    const double limit = net.link(route.front()).speed_limit;
    const VehicleId id = traffic_.spawn(std::move(route),
                                        rng_.uniform(0.5, 0.9) * limit,
                                        sample_automation(),
                                        rng_.uniform(0.85, 1.15));
    // Scatter initial offsets so the prefilled fleet is not bunched at link
    // starts.
    if (VehicleState* v = traffic_.find_mutable(id)) {
      v->offset = rng_.uniform(0.0, net.link(v->link).length * 0.9);
    }
    ++spawned_;
  }
}

void TripGenerator::maybe_spawn_arrivals(double dt) {
  if (traffic_.vehicle_count() >=
      static_cast<std::size_t>(config_.target_population)) {
    return;
  }
  const int arrivals = rng_.poisson(config_.arrival_rate * dt);
  for (int i = 0; i < arrivals; ++i) {
    auto route = random_route();
    if (route.empty()) return;
    const double limit = traffic_.network().link(route.front()).speed_limit;
    traffic_.spawn(std::move(route), rng_.uniform(0.3, 0.7) * limit,
                   sample_automation(), rng_.uniform(0.85, 1.15));
    ++spawned_;
  }
}

void TripGenerator::attach(sim::Simulator& sim) {
  traffic_.set_arrival_handler(
      [this](const VehicleState& v) -> std::optional<std::vector<LinkId>> {
        if (!config_.keep_alive) return std::nullopt;
        const NodeId end = traffic_.network().link(v.link).to;
        auto route = random_route(end);
        if (route.empty()) return std::nullopt;
        return route;
      });
  sim.schedule_every(1.0, [this] { maybe_spawn_arrivals(1.0); }, -1.0,
                     "mobility.spawn");
}

}  // namespace vcl::mobility
