// Network fabric: binds mobility, the radio channel and RSUs into a
// message-passing substrate with beaconing and neighbor tables.
//
// Model:
//  * Beacon rounds. Every `beacon_period` the fabric rebuilds the spatial
//    index and refreshes each vehicle's neighbor table by sampling beacon
//    reception from every in-range transmitter (an aggregate of per-beacon
//    MAC behaviour; beacons themselves are not individually evented, which
//    keeps a 1000-vehicle scenario tractable). A round has two stages.
//    Stage A computes, for each receiver, a row of (sender, threshold)
//    pairs, the threshold being Rng::bernoulli_threshold of the pair's
//    reception probability; it only reads the snapshot, the grid and the
//    blackout set. Stage B draws one word per pair, hears the beacon when
//    the word is below the threshold (an integer compare that gives
//    Rng::bernoulli's outcome on that word), and merges the heard beacons
//    into the tables, serially, in snapshot order.
//    A world above a size floor has stage A rows computed ahead by up to 3
//    helper threads (one fewer than the process's CPUs) that the calling
//    thread joins; the draws and merges, and so every output, are the same
//    with any number of helpers. A world that holds still (parked cars, no
//    blackout change) replays its last round's rows instead of computing
//    them.
//  * Data messages. `send`/`broadcast` are per-message: reception is
//    sampled on the live channel and delivery callbacks fire after the
//    sampled hop delay. One handler receives every message delivered to a
//    vehicle.
#pragma once

#include <array>
#include <functional>
#include <memory>
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
#include "util/helped_round.h"
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
  Accumulator hop_delay;
  // Beacon work: rounds run, and those that replayed the reception plan.
  std::size_t beacon_rounds = 0;
  std::size_t beacon_replays = 0;
};

class Network {
 public:
  Network(sim::Simulator& sim, mobility::TrafficModel& traffic, Rng rng);
  // Helper threads hold `this` during a beacon round.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

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

  // The handler invoked for every message delivered to a vehicle: routing
  // protocols run the same forwarding logic on every vehicle without
  // registering per-spawn.
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
  // True while a reception plan is held for replay (the world held still
  // for a whole beacon period).
  [[nodiscard]] bool has_reception_plan() const { return plan_valid_; }

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

  [[nodiscard]] const NetStats& stats() const { return stats_; }
  NetStats& stats() { return stats_; }

  // --- telemetry (off by default: null recorder = one branch per event) -------
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }
  // Registers the fabric's gauges (net.* / chan.*) with the sampler.
  void register_metrics(obs::MetricsRegistry& metrics) const;

 private:
  // Reception rows of kRowChunk consecutive snapshot slots (stage A): slot
  // first + i hears senders sender[k] when a drawn word is below
  // threshold[k], for k in [start[i], start[i + 1]), in query order. Pairs
  // at p <= 0 are left out: they draw nothing. sender and threshold are
  // written by index up to their size.
  static constexpr std::size_t kRowChunk = 16;
  struct RowChunk {
    std::array<std::uint32_t, kRowChunk + 1> start{};
    std::vector<std::uint32_t> sender;
    std::vector<std::uint64_t> threshold;
  };
  // Rounds with fewer receivers than this compute every row on the calling
  // thread and never start a helper.
  static constexpr std::size_t kHelpedFloor = 256;
  static constexpr std::size_t kRowSlots = 4;  // ring slots of helped rounds

  void beacon_round_tables();
  // Stage A of one chunk into `out`, with `nearby` as grid query scratch.
  // Returns the chunk's pair count; the rows are complete only when it is
  // at most out.sender.size(). Reads only state fixed during a round.
  std::size_t fill_rows(std::size_t chunk, std::vector<std::uint32_t>& nearby,
                        RowChunk& out) const;
  // Stage A of one chunk on the calling thread.
  const RowChunk& own_rows(std::size_t chunk);
  // Sizes the ring and helper scratch, then opens a helped round.
  void open_helped_round(ThreadPool& pool, std::size_t chunks);
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
  // its query results are snapshot slots. The previous rebuild's ids and
  // positions are kept in swapped buffers for the round key.
  std::vector<VehicleId> snap_id_;
  std::vector<geo::Vec2> snap_pos_;
  std::vector<geo::Vec2> snap_vel_;
  std::vector<VehicleId> prev_id_;
  std::vector<geo::Vec2> prev_pos_;
  bool same_snapshot_ = false;  // ids equal, positions bitwise equal
  std::vector<std::uint32_t> slot_by_id_;  // vehicle id -> slot / kNoSlot
  geo::SpatialGrid index_;
  // The previous beacon round's time, and its input to reception
  // probabilities besides the snapshot.
  SimTime last_round_at_ = 0.0;
  std::vector<std::pair<std::uint64_t, BlackoutRegion>> last_blackouts_;
  // Reception plan: the rows of a whole round, slot s hearing senders
  // plan_sender_[k] at threshold plan_threshold_[k] for k in
  // [plan_start_[s], plan_start_[s + 1]). Held only while every round's
  // inputs equal the previous round's.
  std::vector<std::uint32_t> plan_start_;
  std::vector<std::uint32_t> plan_sender_;
  std::vector<std::uint64_t> plan_threshold_;
  std::size_t row_pairs_ = 0;  // pairs in the rows of the last computed round
  bool plan_valid_ = false;
  // Stage A buffers: the calling thread's own chunk, and for helped rounds
  // the ring slots and one grid query scratch per helper and one for the
  // calling thread. All are sized on the calling thread, so helpers
  // allocate nothing. Ring slots hold the most pairs any chunk of the round
  // can have (Network::open_helped_round); a chunk that still does not fit
  // is computed by the calling thread.
  RowChunk own_rows_;
  std::shared_ptr<HelpedRound> helped_;  // created by the first helped round
  std::vector<RowChunk> ring_;
  std::vector<std::vector<std::uint32_t>> helper_nearby_;
  // Neighbor table per vehicle id; departed vehicles' tables are emptied.
  std::vector<std::vector<NeighborEntry>> neighbor_tables_;
  // Beacon-round scratch: vehicle id -> 1 + position in the table being
  // merged (0 = not in it); all zero between merges.
  std::vector<std::uint32_t> table_pos_by_id_;
  // Grid query scratch of the calling thread (beacon rounds, broadcast,
  // local_density).
  mutable std::vector<std::uint32_t> nearby_;
  VehicleHandler vehicle_default_handler_;
  std::uint64_t next_msg_id_ = 1;
  SimTime neighbor_ttl_ = 3.0;
  std::unordered_map<std::uint64_t, double> extra_load_;
  NetStats stats_;
  obs::TraceRecorder* trace_ = nullptr;
  std::vector<NeighborEntry> empty_;
};

}  // namespace vcl::net
