#include "routing/router.h"

namespace vcl::routing {
namespace {

constexpr SimTime kRetryPeriod = 1.0;     // carry-and-forward retry tick
constexpr std::size_t kBufferLimit = 64;  // per-vehicle carry buffer

}  // namespace

Router::Router(net::Network& net, int default_ttl, SimTime max_age)
    : net_(net), default_ttl_(default_ttl), max_age_(max_age) {}

void Router::attach() {
  net_.set_default_vehicle_handler(
      [this](VehicleId self, const net::Message& msg) {
        on_receive(self, msg);
      });
  net_.simulator().schedule_every(kRetryPeriod, [this] { retry_tick(); },
                                  -1.0, "routing.retry");
}

MessageId Router::originate(VehicleId src, VehicleId dst,
                            std::size_t size_bytes) {
  net::Message msg;
  msg.id = net_.next_message_id();
  msg.src = net::Address::vehicle(src);
  msg.dst = net::Address::vehicle(dst);
  msg.kind = net::MessageKind::kData;
  msg.size_bytes = size_bytes;
  msg.created = net_.simulator().now();
  msg.ttl = default_ttl_;
  if (const auto pos = net_.position_of(msg.dst)) {
    msg.dst_pos = *pos;
    msg.has_dst_pos = true;
  }
  metrics_.on_originate(msg);
  mark_seen(src, msg.id);
  forward(src, msg);
  return msg.id;
}

void Router::on_receive(VehicleId self, const net::Message& msg) {
  if (msg.dst.is_vehicle() && msg.dst.as_vehicle() == self) {
    metrics_.on_deliver(msg, net_.simulator().now());
    return;
  }
  if (seen(self, msg.id)) return;
  mark_seen(self, msg.id);
  if (msg.hops >= msg.ttl) return;
  if (net_.simulator().now() - msg.created > max_age_) return;
  forward(self, msg);
}

void Router::buffer_message(VehicleId self, const net::Message& msg) {
  auto& buf = buffers_[self.value()];
  if (buf.size() >= kBufferLimit) buf.pop_front();
  buf.push_back(msg);
}

void Router::retry(VehicleId self, const net::Message& msg) {
  forward(self, msg);
}

void Router::retry_tick() {
  const SimTime now = net_.simulator().now();
  for (auto it = buffers_.begin(); it != buffers_.end();) {
    const VehicleId self{it->first};
    if (net_.traffic().find(self) == nullptr) {
      it = buffers_.erase(it);  // carrier left the simulation
      continue;
    }
    std::deque<net::Message> pending;
    pending.swap(it->second);
    ++it;
    for (const net::Message& msg : pending) {
      if (now - msg.created > max_age_) continue;
      retry(self, msg);
    }
  }
}

bool Router::send_to(VehicleId from, net::Address to, net::Message msg) {
  msg.src = net::Address::vehicle(from);
  metrics_.on_transmit();
  return net_.send_via(msg, to);
}

std::size_t Router::broadcast_from(VehicleId from, net::Message msg) {
  msg.src = net::Address::vehicle(from);
  metrics_.on_transmit();
  return net_.broadcast(msg);
}

bool Router::seen(VehicleId self, MessageId id) const {
  auto it = seen_.find(self.value());
  return it != seen_.end() && it->second.count(id.value()) != 0;
}

void Router::mark_seen(VehicleId self, MessageId id) {
  seen_[self.value()].insert(id.value());
}

}  // namespace vcl::routing
