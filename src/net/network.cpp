#include "net/network.h"

#include <algorithm>

namespace vcl::net {

Network::Network(sim::Simulator& sim, mobility::TrafficModel& traffic,
                 ChannelConfig channel_cfg, Rng rng)
    : sim_(sim),
      traffic_(traffic),
      channel_(channel_cfg),
      rng_(rng),
      index_(channel_cfg.max_range) {}

void Network::set_handler(Address addr, Handler handler) {
  handlers_[addr.key()] = std::move(handler);
}

void Network::clear_handler(Address addr) { handlers_.erase(addr.key()); }

void Network::start_beacons(SimTime period) {
  refresh();
  sim_.schedule_every(period, [this] { beacon_round(); }, -1.0,
                      "net.beacon");
}

void Network::refresh() {
  rebuild_index();
  beacon_round_tables();
}

void Network::rebuild_index() {
  for (const VehicleId id : snap_id_) slot_by_id_[id.value()] = kNoSlot;
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
  index_.build(snap_pos_);
}

std::uint32_t Network::slot_of(VehicleId v) const {
  return v.value() < slot_by_id_.size() ? slot_by_id_[v.value()] : kNoSlot;
}

void Network::beacon_round() {
  rebuild_index();
  beacon_round_tables();
}

void Network::beacon_round_tables() {
  const double range = channel_.config().max_range;
  const SimTime now = sim_.now();

  // Drop tables of departed vehicles.
  neighbor_tables_.resize(slot_by_id_.size());
  table_pos_by_id_.resize(slot_by_id_.size(), 0);
  for (std::size_t id = 0; id < neighbor_tables_.size(); ++id) {
    if (slot_by_id_[id] == kNoSlot && neighbor_tables_[id].capacity() != 0) {
      neighbor_tables_[id] = std::vector<NeighborEntry>();
    }
  }

  for (std::uint32_t self = 0; self < snap_id_.size(); ++self) {
    const geo::Vec2 pos = snap_pos_[self];
    index_.query(pos, range, nearby_);
    auto& table = neighbor_tables_[snap_id_[self].value()];
    for (std::size_t k = 0; k < table.size(); ++k) {
      table_pos_by_id_[table[k].id.value()] = static_cast<std::uint32_t>(k + 1);
    }
    const std::size_t density = nearby_.size();
    for (const std::uint32_t n : nearby_) {
      if (n == self) continue;
      // Sample beacon reception from neighbor -> self; refresh on success.
      if (!rng_.bernoulli(
              channel_.reception_probability(snap_pos_[n], pos, density))) {
        continue;
      }
      const NeighborEntry heard{snap_id_[n], snap_pos_[n], snap_vel_[n], now};
      std::uint32_t& at = table_pos_by_id_[heard.id.value()];
      if (at != 0) {
        table[at - 1] = heard;
      } else {
        table.push_back(heard);
        at = static_cast<std::uint32_t>(table.size());
      }
    }
    for (const NeighborEntry& e : table) table_pos_by_id_[e.id.value()] = 0;
    // Expire stale entries and entries for departed or out-of-range-departed
    // vehicles.
    std::erase_if(table, [&](const NeighborEntry& e) {
      if (now - e.last_heard > neighbor_ttl_) return true;
      return slot_of(e.id) == kNoSlot;
    });
  }
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
  const double radius = channel_.config().reference_range;
  if (extra_load_.empty()) return index_.count(pos, radius);
  std::vector<std::uint32_t> nearby;
  index_.query(pos, radius, nearby);
  double extra = 0.0;
  for (const std::uint32_t slot : nearby) {
    auto it = extra_load_.find(snap_id_[slot].value());
    if (it != extra_load_.end()) extra += it->second;
  }
  return nearby.size() + static_cast<std::size_t>(extra);
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
  Message delivered = msg;
  delivered.hops += 1;
  auto it = handlers_.find(to.key());
  if (it != handlers_.end()) {
    const Handler& handler = it->second;
    sim_.schedule_after(delay, [handler, delivered] { handler(delivered); },
                        "net.deliver");
    return;
  }
  if (to.is_vehicle() && vehicle_default_handler_) {
    const VehicleId self = to.as_vehicle();
    sim_.schedule_after(
        delay,
        [this, self, delivered] {
          if (vehicle_default_handler_) vehicle_default_handler_(self, delivered);
        },
        "net.deliver");
  }
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
      range_bonus = r->range / channel_.config().max_range;
    }
  }
  const double dist = geo::distance(*from, *to);
  if (dist > channel_.config().max_range * range_bonus) {
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
  std::vector<std::uint32_t> nearby;
  index_.query(*from, channel_.config().max_range, nearby);
  for (const std::uint32_t slot : nearby) {
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
  // RSUs in range also hear broadcasts.
  for (const Rsu& rsu : rsus_.all()) {
    if (!rsu.online) continue;
    if (geo::distance(rsu.pos, *from) > rsu.range) continue;
    const ReceptionResult r =
        channel_.attempt(*from, *from, msg.size_bytes, density, rng_);
    if (!r.received) continue;
    ++reached;
    deliver(msg, Address::rsu(rsu.id), r.delay);
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

void Network::send_backhaul(RsuId from, RsuId to, Message msg) {
  const Rsu* src = rsus_.find(from);
  const Rsu* dst = rsus_.find(to);
  if (src == nullptr || dst == nullptr || !src->online || !dst->online) {
    ++stats_.dropped;
    return;
  }
  stats_.bytes_sent += msg.size_bytes;
  deliver(msg, Address::rsu(to), backhaul_latency_);
}

}  // namespace vcl::net
