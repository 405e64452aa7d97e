// Router base class: multi-hop message delivery over the one-hop fabric.
//
// A Router installs itself as the network's default vehicle handler; every
// received data message runs the protocol's forwarding decision on the
// receiving vehicle. One router is active per scenario (the benches compare
// protocols across runs, not within one).
//
// Shared machinery: duplicate suppression, TTL/age expiry, carry-and-
// forward buffers with a periodic retry tick, and metrics.
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "net/network.h"
#include "routing/metrics.h"

namespace vcl::routing {

class Router {
 public:
  // Messages start with `default_ttl` hops and are dropped once older than
  // `max_age`; the defaults suit connected-path routing, delay-tolerant
  // routers pass longer ones.
  explicit Router(net::Network& net, int default_ttl = 16,
                  SimTime max_age = 30.0);
  virtual ~Router() = default;
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;

  // Installs handlers and the retry tick.
  void attach();

  // Originates a message at `src` for vehicle `dst`. The router stamps id,
  // creation time, TTL and the destination's current position (location-
  // service assumption, standard in geo-routing evaluations).
  MessageId originate(VehicleId src, VehicleId dst,
                      std::size_t size_bytes = 256);

  [[nodiscard]] const RoutingMetrics& metrics() const { return metrics_; }
  RoutingMetrics& metrics() { return metrics_; }
  [[nodiscard]] net::Network& network() { return net_; }

 protected:
  // Protocol hook: decide what the vehicle `self` does with `msg` (which is
  // already known to be non-duplicate, in-TTL and not addressed to self).
  virtual void forward(VehicleId self, const net::Message& msg) = 0;
  // Protocol hook: retry tick for messages parked in the carry buffer.
  virtual void retry(VehicleId self, const net::Message& msg);

  // Common reception path (duplicate/TTL/age checks, delivery detection).
  void on_receive(VehicleId self, const net::Message& msg);

  // Parks a message on `self` until the next retry tick.
  void buffer_message(VehicleId self, const net::Message& msg);

  // One-hop helpers that keep the transmission count honest.
  bool send_to(VehicleId from, net::Address to, net::Message msg);
  std::size_t broadcast_from(VehicleId from, net::Message msg);

  [[nodiscard]] bool seen(VehicleId self, MessageId id) const;
  void mark_seen(VehicleId self, MessageId id);

  net::Network& net_;
  const int default_ttl_;
  const SimTime max_age_;
  RoutingMetrics metrics_;

 private:
  void retry_tick();

  std::unordered_map<std::uint64_t, std::unordered_set<std::uint64_t>> seen_;
  std::unordered_map<std::uint64_t, std::deque<net::Message>> buffers_;
};

}  // namespace vcl::routing
