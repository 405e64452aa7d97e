// Network fabric: binds mobility, the radio channel and RSUs into a
// message-passing substrate with beaconing and neighbor tables.
//
// Model:
//  * Beacon rounds. Every `beacon_period` the fabric rebuilds the spatial
//    index and refreshes each vehicle's neighbor table by sampling beacon
//    reception from every in-range transmitter (an aggregate of per-beacon
//    MAC behaviour; beacons themselves are not individually evented, which
//    keeps a 1000-vehicle scenario tractable).
//  * Data messages. `send`/`broadcast` are per-message: reception is
//    sampled on the live channel and delivery callbacks fire after the
//    sampled hop delay. Vehicles and RSUs register handlers by address.
//  * RSU backhaul. RSU-to-RSU delivery is wired and reliable with a fixed
//    small latency.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "geo/spatial_grid.h"
#include "mobility/traffic.h"
#include "net/channel.h"
#include "net/message.h"
#include "net/rsu.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace vcl::net {

struct NeighborEntry {
  VehicleId id;
  geo::Vec2 pos;
  geo::Vec2 vel;
  SimTime last_heard = 0.0;
};

struct NetStats {
  std::size_t unicast_sent = 0;
  std::size_t unicast_delivered = 0;
  std::size_t broadcast_sent = 0;       // transmissions
  std::size_t broadcast_receptions = 0;
  std::size_t dropped = 0;
  std::size_t bytes_sent = 0;
  Accumulator hop_delay{/*keep_samples=*/false};
};

class Network {
 public:
  using Handler = std::function<void(const Message&)>;

  Network(sim::Simulator& sim, mobility::TrafficModel& traffic,
          ChannelConfig channel_cfg, Rng rng);

  // --- wiring ---------------------------------------------------------------
  RsuField& rsus() { return rsus_; }
  [[nodiscard]] const RsuField& rsus() const { return rsus_; }
  Channel& channel() { return channel_; }
  // The fabric's random stream (beacon reception and per-message channel
  // draws); its state pins how many draws were made, and in what order.
  [[nodiscard]] const Rng& rng() const { return rng_; }
  sim::Simulator& simulator() { return sim_; }
  mobility::TrafficModel& traffic() { return traffic_; }
  [[nodiscard]] const mobility::TrafficModel& traffic() const {
    return traffic_;
  }

  void set_handler(Address addr, Handler handler);
  void clear_handler(Address addr);

  // Fallback handler invoked for any vehicle without a specific handler —
  // routing protocols use this to run the same forwarding logic on every
  // vehicle without registering per-spawn.
  using VehicleHandler = std::function<void(VehicleId, const Message&)>;
  void set_default_vehicle_handler(VehicleHandler handler);

  // Starts beacon rounds (and keeps the spatial index fresh). Neighbor
  // entries persist across rounds and expire after `neighbor_ttl` — a
  // single lost beacon does not evict a neighbor, matching real CAM
  // processing.
  void start_beacons(SimTime period = 1.0);
  void set_neighbor_ttl(SimTime ttl) { neighbor_ttl_ = ttl; }
  // Forces an immediate index + neighbor-table refresh.
  void refresh();

  // --- queries ----------------------------------------------------------------
  [[nodiscard]] const std::vector<NeighborEntry>& neighbors(VehicleId v) const;
  // Nearest online RSU covering the vehicle, nullptr if none.
  [[nodiscard]] const Rsu* reachable_rsu(VehicleId v) const;
  // Position of any addressable endpoint (vehicles pulled live from traffic).
  [[nodiscard]] std::optional<geo::Vec2> position_of(Address addr) const;
  // Number of transmitters within contention range of a position, plus any
  // registered extra channel load (e.g. DoS flooders).
  [[nodiscard]] std::size_t local_density(geo::Vec2 pos) const;

  // Extra contention units a vehicle puts on the channel (junk traffic).
  // Measured in equivalent-transmitter units; 0 clears.
  void set_extra_load(VehicleId v, double load);
  void clear_extra_loads() { extra_load_.clear(); }

  // --- transmission -----------------------------------------------------------
  // Allocates a fresh message id.
  MessageId next_message_id() { return MessageId{next_msg_id_++}; }

  // One-hop unicast; returns false when the destination is out of range or
  // reception failed (caller sees only asynchronous delivery, the return
  // value is for accounting/tests).
  bool send(Message msg);
  // One-hop unicast to `next_hop` while leaving msg.dst (the final
  // destination) untouched — the forwarding primitive for multi-hop routing.
  bool send_via(const Message& msg, Address next_hop);
  // One-hop broadcast to everything in radio range of the source.
  // Returns the number of endpoints the transmission reached.
  std::size_t broadcast(Message msg);
  // Wired RSU-to-RSU transfer (reliable).
  void send_backhaul(RsuId from, RsuId to, Message msg);

  [[nodiscard]] const NetStats& stats() const { return stats_; }
  NetStats& stats() { return stats_; }

  // --- telemetry (off by default: null recorder = one branch per event) -------
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }
  // Registers the fabric's gauges (net.* / chan.*) with the sampler.
  void register_metrics(obs::MetricsRegistry& metrics) const;

  [[nodiscard]] SimTime backhaul_latency() const { return backhaul_latency_; }
  void set_backhaul_latency(SimTime s) { backhaul_latency_ = s; }

 private:
  void beacon_round();
  void beacon_round_tables();
  void rebuild_index();
  void deliver(const Message& msg, Address to, SimTime delay);
  bool transmit(const Message& msg, Address to);
  // Snapshot slot of a vehicle, kNoSlot when it was absent at the last
  // index rebuild.
  [[nodiscard]] std::uint32_t slot_of(VehicleId v) const;

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  sim::Simulator& sim_;
  mobility::TrafficModel& traffic_;
  Channel channel_;
  Rng rng_;
  RsuField rsus_;
  // World snapshot taken at each index rebuild, in traffic_.vehicles()
  // order (the beacon and RNG order). index_ is built over snap_pos_, so
  // its query results are snapshot slots.
  std::vector<VehicleId> snap_id_;
  std::vector<geo::Vec2> snap_pos_;
  std::vector<geo::Vec2> snap_vel_;
  std::vector<std::uint32_t> slot_by_id_;  // vehicle id -> slot / kNoSlot
  geo::SpatialGrid index_;
  // Neighbor table per vehicle id; departed vehicles' tables are emptied.
  std::vector<std::vector<NeighborEntry>> neighbor_tables_;
  // Beacon-round scratch: vehicle id -> 1 + position in the table being
  // merged (0 = not in it); all zero between merges.
  std::vector<std::uint32_t> table_pos_by_id_;
  std::vector<std::uint32_t> nearby_;
  std::unordered_map<std::uint64_t, Handler> handlers_;
  VehicleHandler vehicle_default_handler_;
  std::uint64_t next_msg_id_ = 1;
  SimTime backhaul_latency_ = 2 * kMilliseconds;
  SimTime neighbor_ttl_ = 3.0;
  std::unordered_map<std::uint64_t, double> extra_load_;
  NetStats stats_;
  obs::TraceRecorder* trace_ = nullptr;
  std::vector<NeighborEntry> empty_;
};

}  // namespace vcl::net
