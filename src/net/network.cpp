#include "net/network.h"

#include <algorithm>
#include <cstring>

namespace vcl::net {

Network::Network(sim::Simulator& sim, mobility::TrafficModel& traffic, Rng rng)
    : sim_(sim), traffic_(traffic), rng_(rng), index_(Channel::kMaxRange) {}

void Network::start_beacons(SimTime period) {
  refresh();
  sim_.schedule_every(period, [this] { refresh(); }, -1.0, "net.beacon");
}

void Network::refresh() {
  rebuild_index();
  beacon_round_tables();
}

namespace {

// Bitwise, so a position that only compares equal (0.0 against -0.0) still
// counts as moved.
bool same_bits(const std::vector<geo::Vec2>& a,
               const std::vector<geo::Vec2>& b) {
  static_assert(sizeof(geo::Vec2) == 2 * sizeof(double));
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(geo::Vec2)) == 0);
}

}  // namespace

void Network::rebuild_index() {
  std::swap(snap_id_, prev_id_);
  std::swap(snap_pos_, prev_pos_);
  for (const VehicleId id : prev_id_) slot_by_id_[id.value()] = kNoSlot;
  snap_id_.clear();
  snap_pos_.clear();
  snap_vel_.clear();
  for (const auto& [vid, v] : traffic_.vehicles()) {
    if (vid >= slot_by_id_.size()) slot_by_id_.resize(vid + 1, kNoSlot);
    slot_by_id_[vid] = static_cast<std::uint32_t>(snap_id_.size());
    snap_id_.push_back(v.id);
    snap_pos_.push_back(v.pos);
    snap_vel_.push_back(v.vel);
  }
  // The grid depends on the positions alone; unchanged ones rebuild it
  // identically.
  const bool same_pos = same_bits(snap_pos_, prev_pos_);
  if (!same_pos) index_.build(snap_pos_);
  same_snapshot_ = same_pos && snap_id_ == prev_id_;
}

std::uint32_t Network::slot_of(VehicleId v) const {
  return v.value() < slot_by_id_.size() ? slot_by_id_[v.value()] : kNoSlot;
}

std::size_t Network::fill_rows(std::size_t chunk,
                               std::vector<std::uint32_t>& nearby,
                               RowChunk& out) const {
  const double range = Channel::kMaxRange;
  const std::size_t first = chunk * kRowChunk;
  const std::size_t last = std::min(first + kRowChunk, snap_pos_.size());
  std::size_t k = 0;
  out.start[0] = 0;
  for (std::size_t self = first; self < last; ++self) {
    const geo::Vec2 pos = snap_pos_[self];
    index_.query(pos, range, nearby);
    const std::size_t density = nearby.size();
    for (const std::uint32_t n : nearby) {
      if (n == self) continue;
      const double p =
          channel_.reception_probability(snap_pos_[n], pos, density);
      // The channel's base loss keeps p below 1, as the threshold needs.
      if (p <= 0.0) continue;
      if (k < out.sender.size()) {
        out.sender[k] = n;
        out.threshold[k] = Rng::bernoulli_threshold(p);
      }
      ++k;
    }
    out.start[self - first + 1] = static_cast<std::uint32_t>(k);
  }
  return k;
}

HelpedRound::Open Network::open_helped_round(std::size_t chunks,
                                             ThreadPool* pool) {
  if (helped_ == nullptr) {
    helped_ = std::make_shared<HelpedRound>(kRowSlots, helper_threads());
    ring_.resize(kRowSlots);
    // One grid query scratch per helper, and one for the calling thread.
    helper_nearby_.resize(helper_threads() + 1);
  }
  // The query radius is the grid's cell size, so a receiver's row holds at
  // most the points of the 3x3 block of cells around it, itself excluded:
  // every chunk of the round fits, the first round's too.
  const std::size_t capacity = kRowChunk * index_.max_block_points();
  if (capacity > ring_.front().sender.size()) {
    for (RowChunk& slot : ring_) {
      slot.sender.resize(capacity);
      slot.threshold.resize(capacity);
    }
  }
  // A grid query returns at most every snapshot slot.
  for (auto& nearby : helper_nearby_) nearby.reserve(snap_pos_.size());
  return helped_->begin(
      chunks,
      [this](std::size_t helper, std::size_t chunk, std::size_t slot) {
        RowChunk& rows = ring_[slot];
        std::vector<std::uint32_t>& nearby = helper_nearby_[helper];
        const std::size_t pairs = fill_rows(chunk, nearby, rows);
        if (pairs <= rows.sender.size()) return true;
        if (helper + 1 < helper_nearby_.size()) return false;
        // The calling thread's chunk must fit: it grows the slot.
        rows.sender.resize(pairs);
        rows.threshold.resize(pairs);
        fill_rows(chunk, nearby, rows);
        return true;
      },
      pool);
}

void Network::beacon_round_tables() {
  const SimTime now = sim_.now();
  ++stats_.beacon_rounds;

  // Reception probabilities depend on the snapshot ids and positions and
  // the blackout set; velocities and extra load do not enter them. A round
  // whose inputs equal the previous round's replays the plan if one is
  // held. Otherwise it computes, and records a plan only in a later round
  // with the same inputs, so the world held still for a whole period
  // (set-up refreshes twice at t=0 and records nothing).
  const bool held_still =
      same_snapshot_ && channel_.blackouts() == last_blackouts_;
  if (!held_still) {
    plan_start_ = {};
    plan_sender_ = {};
    plan_threshold_ = {};
    plan_valid_ = false;
    last_blackouts_ = channel_.blackouts();
  }
  const bool replay = held_still && plan_valid_;
  const bool record = held_still && !plan_valid_ && now > last_round_at_;
  last_round_at_ = now;
  if (replay) ++stats_.beacon_replays;
  if (record) {
    plan_start_.reserve(snap_id_.size() + 1);
    plan_start_.assign(1, 0);
    // The previous round computed the same rows: the plan's exact size.
    plan_sender_.reserve(row_pairs_);
    plan_threshold_.reserve(row_pairs_);
  }

  // Drop tables of vehicles that left since the last round.
  neighbor_tables_.resize(slot_by_id_.size());
  table_pos_by_id_.resize(slot_by_id_.size(), 0);
  if (!same_snapshot_) {
    for (const VehicleId id : prev_id_) {
      if (slot_of(id) == kNoSlot) {
        neighbor_tables_[id.value()] = std::vector<NeighborEntry>();
      }
    }
  }

  // Stage A's rows come from the plan or from a helped round, with helpers
  // from kHelpedFloor receivers on. They only read state that stays fixed
  // until the round ends: the snapshot, the grid and the channel.
  const std::size_t receivers = snap_id_.size();
  const std::size_t chunks = (receivers + kRowChunk - 1) / kRowChunk;
  HelpedRound::Open round;
  if (!replay) {
    round = open_helped_round(
        chunks, receivers < kHelpedFloor ? nullptr : helper_pool());
  }

  // Stage B, the one draw-and-merge loop: in snapshot order, draw one word
  // per pair of each row (a beacon is heard when the word is below the
  // pair's threshold, Rng::bernoulli's outcome at its p) and merge the
  // heard ones into the table.
  std::size_t pairs = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t first = c * kRowChunk;
    const std::size_t last = std::min(first + kRowChunk, receivers);
    const RowChunk* rows = nullptr;
    if (!replay) {
      rows = &ring_[helped_->acquire(c)];
      pairs += rows->start[last - first];
    }
    // Row i of the chunk is [start[i], start[i + 1]) of sender and
    // threshold.
    const std::uint32_t* start =
        replay ? plan_start_.data() + first : rows->start.data();
    const std::uint32_t* sender =
        replay ? plan_sender_.data() : rows->sender.data();
    const std::uint64_t* threshold =
        replay ? plan_threshold_.data() : rows->threshold.data();
    for (std::size_t self = first; self < last; ++self) {
      auto& table = neighbor_tables_[snap_id_[self].value()];
      for (std::size_t k = 0; k < table.size(); ++k) {
        table_pos_by_id_[table[k].id.value()] =
            static_cast<std::uint32_t>(k + 1);
      }
      const std::uint32_t row_begin = start[self - first];
      const std::uint32_t row_end = start[self - first + 1];
      for (std::uint32_t k = row_begin; k < row_end; ++k) {
        if (!(rng_.engine()() < threshold[k])) continue;
        const std::uint32_t n = sender[k];
        const NeighborEntry heard{snap_id_[n], snap_pos_[n], snap_vel_[n],
                                  now};
        std::uint32_t& at = table_pos_by_id_[heard.id.value()];
        if (at != 0) {
          table[at - 1] = heard;
        } else {
          table.push_back(heard);
          at = static_cast<std::uint32_t>(table.size());
        }
      }
      if (record) {
        plan_sender_.insert(plan_sender_.end(), sender + row_begin,
                            sender + row_end);
        plan_threshold_.insert(plan_threshold_.end(), threshold + row_begin,
                               threshold + row_end);
        plan_start_.push_back(
            static_cast<std::uint32_t>(plan_threshold_.size()));
      }
      for (const NeighborEntry& e : table) table_pos_by_id_[e.id.value()] = 0;
      // Expire stale entries and entries for departed or
      // out-of-range-departed vehicles.
      std::erase_if(table, [&](const NeighborEntry& e) {
        if (now - e.last_heard > neighbor_ttl_) return true;
        return slot_of(e.id) == kNoSlot;
      });
    }
    if (!replay) helped_->release(c);
  }
  if (!replay) row_pairs_ = pairs;
  if (record) plan_valid_ = true;
}

const std::vector<NeighborEntry>& Network::neighbors(VehicleId v) const {
  return v.value() < neighbor_tables_.size() ? neighbor_tables_[v.value()]
                                             : empty_;
}

const Rsu* Network::reachable_rsu(VehicleId v) const {
  const mobility::VehicleState* s = traffic_.find(v);
  if (s == nullptr) return nullptr;
  return rsus_.covering(s->pos);
}

std::optional<geo::Vec2> Network::position_of(Address addr) const {
  if (addr.is_vehicle()) {
    const mobility::VehicleState* s = traffic_.find(addr.as_vehicle());
    if (s == nullptr) return std::nullopt;
    return s->pos;
  }
  if (addr.is_rsu()) {
    const Rsu* r = rsus_.find(addr.as_rsu());
    if (r == nullptr || !r->online) return std::nullopt;
    return r->pos;
  }
  return std::nullopt;
}

std::size_t Network::local_density(geo::Vec2 pos) const {
  const double radius = Channel::kReferenceRange;
  if (extra_load_.empty()) return index_.count(pos, radius);
  index_.query(pos, radius, nearby_);
  double extra = 0.0;
  for (const std::uint32_t slot : nearby_) {
    auto it = extra_load_.find(snap_id_[slot].value());
    if (it != extra_load_.end()) extra += it->second;
  }
  return nearby_.size() + static_cast<std::size_t>(extra);
}

void Network::set_extra_load(VehicleId v, double load) {
  if (load <= 0.0) {
    extra_load_.erase(v.value());
  } else {
    extra_load_[v.value()] = load;
  }
}

void Network::set_default_vehicle_handler(VehicleHandler handler) {
  vehicle_default_handler_ = std::move(handler);
}

void Network::deliver(const Message& msg, Address to, SimTime delay) {
  if (!to.is_vehicle() || !vehicle_default_handler_) return;
  Message delivered = msg;
  delivered.hops += 1;
  const VehicleId self = to.as_vehicle();
  sim_.schedule_after(
      delay,
      [this, self, delivered] {
        if (vehicle_default_handler_) vehicle_default_handler_(self, delivered);
      },
      "net.deliver");
}

bool Network::transmit(const Message& msg, Address to_addr) {
  ++stats_.unicast_sent;
  stats_.bytes_sent += msg.size_bytes;
  if (trace_ != nullptr) {
    trace_->record(sim_.now(), obs::TraceCategory::kNet, "net.tx", msg.trace,
                   {{"src", static_cast<double>(msg.src.key())},
                    {"dst", static_cast<double>(to_addr.key())},
                    {"bytes", static_cast<double>(msg.size_bytes)}});
  }
  const auto from = position_of(msg.src);
  const auto to = position_of(to_addr);
  if (!from || !to) {
    ++stats_.dropped;
    // reason: 1 = endpoint gone, 2 = out of range, 3 = channel loss
    if (trace_ != nullptr) {
      trace_->record(sim_.now(), obs::TraceCategory::kNet, "net.drop",
                     msg.trace,
                     {{"dst", static_cast<double>(to_addr.key())},
                      {"reason", 1.0}});
    }
    return false;
  }
  // RSUs have stronger radios: use the RSU's own range for either endpoint.
  double range_bonus = 1.0;
  if (msg.src.is_rsu() || to_addr.is_rsu()) {
    const Rsu* r = msg.src.is_rsu() ? rsus_.find(msg.src.as_rsu())
                                    : rsus_.find(to_addr.as_rsu());
    if (r != nullptr) {
      range_bonus = r->range / Channel::kMaxRange;
    }
  }
  const double dist = geo::distance(*from, *to);
  if (dist > Channel::kMaxRange * range_bonus) {
    ++stats_.dropped;
    if (trace_ != nullptr) {
      trace_->record(sim_.now(), obs::TraceCategory::kNet, "net.drop",
                     msg.trace,
                     {{"dst", static_cast<double>(to_addr.key())},
                      {"reason", 2.0},
                      {"dist", dist}});
    }
    return false;
  }
  // Scale position difference so the channel sees an equivalent distance
  // within its nominal range.
  geo::Vec2 eff_to = *from + (*to - *from) / range_bonus;
  const ReceptionResult r = channel_.attempt(
      *from, eff_to, msg.size_bytes, local_density(*from), rng_);
  if (!r.received) {
    ++stats_.dropped;
    if (trace_ != nullptr) {
      trace_->record(sim_.now(), obs::TraceCategory::kNet, "net.drop",
                     msg.trace,
                     {{"dst", static_cast<double>(to_addr.key())},
                      {"reason", 3.0},
                      {"dist", dist}});
    }
    return false;
  }
  ++stats_.unicast_delivered;
  stats_.hop_delay.add(r.delay);
  if (trace_ != nullptr) {
    trace_->record(sim_.now(), obs::TraceCategory::kNet, "net.rx", msg.trace,
                   {{"dst", static_cast<double>(to_addr.key())},
                    {"delay", r.delay},
                    {"bytes", static_cast<double>(msg.size_bytes)}});
  }
  deliver(msg, to_addr, r.delay);
  return true;
}

bool Network::send(Message msg) { return transmit(msg, msg.dst); }

bool Network::send_via(const Message& msg, Address next_hop) {
  return transmit(msg, next_hop);
}

std::size_t Network::broadcast(Message msg) {
  ++stats_.broadcast_sent;
  stats_.bytes_sent += msg.size_bytes;
  if (trace_ != nullptr) {
    trace_->record(sim_.now(), obs::TraceCategory::kNet, "net.broadcast",
                   {{"src", static_cast<double>(msg.src.key())},
                    {"bytes", static_cast<double>(msg.size_bytes)}});
  }
  const auto from = position_of(msg.src);
  if (!from) return 0;
  const std::size_t density = local_density(*from);

  std::size_t reached = 0;
  // Grid positions are the last snapshot's; reception uses live ones.
  index_.query(*from, Channel::kMaxRange, nearby_);
  for (const std::uint32_t slot : nearby_) {
    const VehicleId nid = snap_id_[slot];
    const Address addr = Address::vehicle(nid);
    if (addr == msg.src) continue;
    const mobility::VehicleState* n = traffic_.find(nid);
    if (n == nullptr) continue;
    const ReceptionResult r =
        channel_.attempt(*from, n->pos, msg.size_bytes, density, rng_);
    if (!r.received) continue;
    ++reached;
    ++stats_.broadcast_receptions;
    deliver(msg, addr, r.delay);
  }
  // RSUs in range also hear broadcasts. No handler listens on an RSU
  // address, but each reception is still drawn and counted.
  for (const Rsu& rsu : rsus_.all()) {
    if (!rsu.online) continue;
    if (geo::distance(rsu.pos, *from) > rsu.range) continue;
    const ReceptionResult r =
        channel_.attempt(*from, *from, msg.size_bytes, density, rng_);
    if (r.received) ++reached;
  }
  return reached;
}

void Network::register_metrics(obs::MetricsRegistry& metrics) const {
  metrics.gauge("net.unicast.sent",
                [this] { return static_cast<double>(stats_.unicast_sent); });
  metrics.gauge("net.unicast.delivered", [this] {
    return static_cast<double>(stats_.unicast_delivered);
  });
  metrics.gauge("net.broadcast.sent",
                [this] { return static_cast<double>(stats_.broadcast_sent); });
  metrics.gauge("net.packet.dropped",
                [this] { return static_cast<double>(stats_.dropped); });
  metrics.gauge("net.bytes.sent",
                [this] { return static_cast<double>(stats_.bytes_sent); });
  metrics.gauge("net.loss.rate", [this] {
    const double attempts = static_cast<double>(stats_.unicast_sent);
    return attempts > 0.0 ? static_cast<double>(stats_.dropped) / attempts
                          : 0.0;
  });
  metrics.gauge("net.hop.delay_mean", [this] { return stats_.hop_delay.mean(); });
  metrics.gauge("chan.attempt.count", [this] {
    return static_cast<double>(channel_.counters().attempts);
  });
  metrics.gauge("chan.attempt.delivered", [this] {
    return static_cast<double>(channel_.counters().delivered);
  });
  metrics.gauge("chan.blackout.dropped", [this] {
    return static_cast<double>(channel_.counters().blackout_drops);
  });
}

}  // namespace vcl::net
