#include "mobility/trip_generator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "util/helped_round.h"

namespace vcl::mobility {
namespace {

constexpr double kArrivalRate = 2.0;  // vehicles per second while below target
constexpr int kRouteAttempts = 32;    // pairs a route draws before giving up

// Prefill rounds (DESIGN.md §4 "Prefill"): speculated searches travel in
// chunks of kRouteChunk pairs through a ring of kRouteSlots slots. A round
// with fewer than kHelpedFloor of them runs every one on the calling thread
// and never starts a helper: waking the helpers can cost the calling thread
// milliseconds, as much as a few hundred searches on a small city take.
constexpr std::size_t kRouteChunk = 16;
constexpr std::size_t kRouteSlots = 8;
constexpr std::size_t kHelpedFloor = 1024;
// The draws after a vehicle's route: speed, automation, speed factor and
// offset, one uniform real each, so one engine word each whatever their
// bounds.
constexpr int kPostRouteDraws = 4;

// Draws (origin, dest) pairs, origin fixed when `from` is valid and a pair
// with dest == origin redrawn, until `accept` takes one. False when
// kRouteAttempts pairs were drawn and none was taken.
template <typename Accept>
bool draw_trip(const geo::RoadNetwork& net, Rng& rng, NodeId from,
               Accept&& accept) {
  if (net.node_count() < 2) return false;
  for (int attempt = 0; attempt < kRouteAttempts; ++attempt) {
    const NodeId origin =
        from.valid() ? from : NodeId{static_cast<std::uint64_t>(rng.index(
                                  net.node_count()))};
    const NodeId dest{static_cast<std::uint64_t>(rng.index(net.node_count()))};
    if (dest != origin && accept(origin, dest)) return true;
  }
  return false;
}

bool long_enough(const std::optional<std::vector<LinkId>>& path) {
  return path && path->size() >= TripGenerator::kMinTripLinks;
}

// A route from draw_trip's pairs, each searched by `search`: the first path
// of at least kMinTripLinks links, empty when none was found.
template <typename Search>
std::vector<LinkId> draw_route(const geo::RoadNetwork& net, Rng& rng,
                               NodeId from, Search&& search) {
  std::vector<LinkId> route;
  draw_trip(net, rng, from, [&](NodeId origin, NodeId dest) {
    auto path = search(origin, dest);
    if (!long_enough(path)) return false;
    route = std::move(*path);
    return true;
  });
  return route;
}

// True when `to` is at most `hops` links from `from`.
bool within_hops(const geo::RoadNetwork& net, NodeId from, NodeId to,
                 std::size_t hops) {
  if (from == to) return true;
  if (hops == 0) return false;
  for (const LinkId l : net.nodes()[from.value()].out_links) {
    if (within_hops(net, net.link_heads()[l.value()], to, hops - 1)) {
      return true;
    }
  }
  return false;
}

// The route searches of one prefill round. open() draws ahead on a copy of
// the generator's RNG and lists the searches the commit loop will run, in
// order. A pair within kMinTripLinks - 1 hops may come out too short, so it
// is searched there and then; any other pair is long enough if reachable,
// is assumed reachable, and is searched in chunks on the helper pool while
// the commit runs. find() hands out a listed result only for the pair the
// speculation expected next; any other pair is searched on the calling
// thread and marks the round missed.
class SpeculativeRoutes {
 public:
  explicit SpeculativeRoutes(const geo::RoadNetwork& net) : net_(net) {}
  ~SpeculativeRoutes() { close(); }
  SpeculativeRoutes(const SpeculativeRoutes&) = delete;
  SpeculativeRoutes& operator=(const SpeculativeRoutes&) = delete;

  // Lists the searches of up to `vehicles` vehicles as the commit loop
  // draws them from `rng`, searching near pairs with `routes`, and opens
  // the round.
  void open(Rng rng, std::size_t vehicles, geo::RouteSearch& routes);
  // The fastest path from `from` to `to`, as routes.find would return it.
  std::optional<std::vector<LinkId>> find(NodeId from, NodeId to,
                                          geo::RouteSearch& routes);
  // The commit searched a pair the speculation did not list next.
  [[nodiscard]] bool missed() const { return missed_; }
  // Closes the round; returns once no helper reads it.
  void close();

 private:
  struct Pair {
    NodeId from;
    NodeId to;
  };
  struct Guess {
    Pair pair;
    bool near;  // searched by open(), and again by find()
  };
  // A workspace of one HelpedRound index, on cache lines of its own (as is
  // each ring slot): a search writes its heap's bounds on every push and
  // pop.
  struct alignas(64) HelperSearch {
    geo::RouteSearch routes;
  };
  // Paths of kRouteChunk consecutive pairs: pair i's links are
  // [start[i], start[i + 1]) of `links` when reached[i].
  struct alignas(64) Chunk {
    std::array<std::uint32_t, kRouteChunk + 1> start{};
    std::array<bool, kRouteChunk> reached{};
    std::vector<LinkId> links;
  };

  // The searches of one chunk into a ring slot, with the workspace of
  // index `helper`; false when their paths do not fit.
  bool produce(std::size_t helper, std::size_t chunk, std::size_t slot);
  // The result of the next pair searched ahead.
  std::optional<std::vector<LinkId>> take(NodeId from, NodeId to,
                                          geo::RouteSearch& routes);

  static constexpr std::size_t kNoChunk = static_cast<std::size_t>(-1);

  const geo::RoadNetwork& net_;
  std::vector<Guess> guesses_;  // the searches the commit should run
  std::vector<Pair> ahead_;     // the guesses that are searched ahead
  std::size_t next_guess_ = 0;
  std::size_t next_ahead_ = 0;
  bool missed_ = false;
  // The helped round, its ring and one workspace per HelpedRound index, all
  // sized on the calling thread by the first round that invites helpers.
  ThreadPool* pool_ = nullptr;  // non-null while a helped round is open
  std::shared_ptr<HelpedRound> round_;
  std::vector<Chunk> ring_;
  std::vector<HelperSearch> helpers_;
  std::size_t chunk_ = kNoChunk;  // the chunk acquired last
  std::size_t slot_ = HelpedRound::kCaller;
};

void SpeculativeRoutes::open(Rng rng, std::size_t vehicles,
                             geo::RouteSearch& routes) {
  guesses_.clear();
  ahead_.clear();
  next_guess_ = next_ahead_ = 0;
  missed_ = false;
  chunk_ = kNoChunk;
  for (std::size_t v = 0; v < vehicles; ++v) {
    const bool drawn =
        draw_trip(net_, rng, NodeId{}, [&](NodeId from, NodeId to) {
          const bool near =
              within_hops(net_, from, to, TripGenerator::kMinTripLinks - 1);
          guesses_.push_back({{from, to}, near});
          if (near) return long_enough(routes.find(net_, from, to));
          ahead_.push_back({from, to});
          return true;
        });
    if (!drawn) break;
    for (int d = 0; d < kPostRouteDraws; ++d) rng.uniform();
  }
  pool_ = ahead_.size() < kHelpedFloor ? nullptr : helper_pool();
  if (pool_ == nullptr) return;
  if (round_ == nullptr) {
    round_ = std::make_shared<HelpedRound>(kRouteSlots, pool_->threads());
    // A fastest path on a square grid has at most 2·sqrt(V) links. A chunk
    // whose paths do not fit is searched by the calling thread.
    const auto per_path = static_cast<std::size_t>(
        2.0 * std::ceil(std::sqrt(static_cast<double>(net_.node_count()))));
    ring_.resize(kRouteSlots);
    for (Chunk& slot : ring_) slot.links.resize(kRouteChunk * per_path);
    // One workspace per helper, and one for the chunks the calling thread
    // searches into the ring while a helper holds the chunk it waits for.
    helpers_.resize(pool_->threads() + 1);
    for (HelperSearch& h : helpers_) h.routes.reserve(net_);
  }
  round_->begin(
      (ahead_.size() + kRouteChunk - 1) / kRouteChunk,
      [this](std::size_t helper, std::size_t chunk, std::size_t slot) {
        return produce(helper, chunk, slot);
      },
      *pool_);
}

bool SpeculativeRoutes::produce(std::size_t helper, std::size_t chunk,
                                std::size_t slot) {
  Chunk& out = ring_[slot];
  geo::RouteSearch& routes = helpers_[helper].routes;
  const std::size_t first = chunk * kRouteChunk;
  const std::size_t last = std::min(first + kRouteChunk, ahead_.size());
  std::size_t k = 0;
  for (std::size_t j = first; j < last; ++j) {
    const auto links = routes.find_into(net_, ahead_[j].from, ahead_[j].to,
                                        std::span(out.links).subspan(k));
    out.reached[j - first] = links.has_value();
    if (links) k += *links;
    if (k > out.links.size()) return false;
    out.start[j - first + 1] = static_cast<std::uint32_t>(k);
  }
  return true;
}

std::optional<std::vector<LinkId>> SpeculativeRoutes::find(
    NodeId from, NodeId to, geo::RouteSearch& routes) {
  if (!missed_ && next_guess_ < guesses_.size()) {
    const Guess& g = guesses_[next_guess_];
    if (g.pair.from == from && g.pair.to == to) {
      ++next_guess_;
      return g.near ? routes.find(net_, from, to) : take(from, to, routes);
    }
  }
  missed_ = true;
  return routes.find(net_, from, to);
}

std::optional<std::vector<LinkId>> SpeculativeRoutes::take(
    NodeId from, NodeId to, geo::RouteSearch& routes) {
  const std::size_t j = next_ahead_++;
  if (pool_ == nullptr) return routes.find(net_, from, to);
  const std::size_t chunk = j / kRouteChunk;
  if (chunk != chunk_) {
    if (chunk_ != kNoChunk) round_->release(chunk_);
    slot_ = round_->acquire(chunk);
    chunk_ = chunk;
  }
  // A chunk nobody claimed, or one that did not fit its slot, is searched
  // here pair by pair.
  if (slot_ == HelpedRound::kCaller) return routes.find(net_, from, to);
  const Chunk& in = ring_[slot_];
  const std::size_t i = j % kRouteChunk;
  if (!in.reached[i]) return std::nullopt;
  return std::vector<LinkId>(in.links.begin() + in.start[i],
                             in.links.begin() + in.start[i + 1]);
}

void SpeculativeRoutes::close() {
  if (pool_ != nullptr) round_->end();
  pool_ = nullptr;
}

}  // namespace

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

VehicleId TripGenerator::spawn(std::vector<LinkId> route, double min_speed,
                               double max_speed) {
  const double limit = traffic_.network().link(route.front()).speed_limit;
  // Right to left: the order gcc evaluated these in as the arguments of one
  // TrafficModel::spawn call, before they were named.
  const double speed_factor = rng_.uniform(0.85, 1.15);
  const AutomationLevel automation = sample_automation();
  const double speed = rng_.uniform(min_speed, max_speed) * limit;
  ++spawned_;
  return traffic_.spawn(std::move(route), speed, automation, speed_factor);
}

std::vector<LinkId> TripGenerator::random_route(NodeId from) {
  const auto& net = traffic_.network();
  return draw_route(net, rng_, from, [&](NodeId origin, NodeId dest) {
    return routes_.find(net, origin, dest);
  });
}

void TripGenerator::prefill() {
  const auto& net = traffic_.network();
  const auto target = static_cast<std::size_t>(config_.target_population);
  SpeculativeRoutes speculated(net);
  // Vehicles the next round speculates: all at first, then twice what the
  // last round committed, so a network where guesses keep missing wastes
  // little speculation.
  std::size_t window = target;
  while (traffic_.vehicle_count() < target) {
    speculated.open(rng_, std::min(window, target - traffic_.vehicle_count()),
                    routes_);
    std::size_t committed = 0;
    // The serial loop; it runs past the speculated vehicles until a search
    // misses, so every round commits at least one vehicle.
    while (traffic_.vehicle_count() < target && !speculated.missed()) {
      auto route = draw_route(net, rng_, NodeId{}, [&](NodeId from, NodeId to) {
        return speculated.find(from, to, routes_);
      });
      if (route.empty()) return;
      const VehicleId id = spawn(std::move(route), 0.5, 0.9);
      // Scatter initial offsets so the prefilled fleet is not bunched at
      // link starts.
      if (VehicleState* v = traffic_.find_mutable(id)) {
        v->offset = rng_.uniform(0.0, net.link(v->link).length * 0.9);
      }
      ++committed;
    }
    speculated.close();
    window = std::max(2 * committed, kRouteChunk);
  }
}

void TripGenerator::maybe_spawn_arrivals(double dt) {
  if (traffic_.vehicle_count() >=
      static_cast<std::size_t>(config_.target_population)) {
    return;
  }
  const int arrivals = rng_.poisson(kArrivalRate * dt);
  for (int i = 0; i < arrivals; ++i) {
    auto route = random_route();
    if (route.empty()) return;
    spawn(std::move(route), 0.3, 0.7);
  }
}

void TripGenerator::attach(sim::Simulator& sim) {
  traffic_.set_arrival_handler(
      [this](const VehicleState& v) -> std::optional<std::vector<LinkId>> {
        const NodeId end = traffic_.network().link(v.link).to;
        auto route = random_route(end);
        if (route.empty()) return std::nullopt;
        return route;
      });
  sim.schedule_every(1.0, [this] { maybe_spawn_arrivals(1.0); }, -1.0,
                     "mobility.spawn");
}

}  // namespace vcl::mobility
