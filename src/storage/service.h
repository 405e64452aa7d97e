// StorageService: a broker-coordinated object store over vehicle-hosted
// replicas (paper §V; arXiv 1711.02014 poses storage as THE canonical
// vehicular-cloud service to harden).
//
// The broker of an existing VehicularCloud coordinates N-way replication
// of opaque objects across member vehicles:
//
//  * membership is lease-based (lease.h): holders renew their replica
//    leases through the cloud's existing heartbeat path (heartbeat hook);
//    an expired lease marks the holder *suspect* and hands it to the
//    repair pipeline — it never silently deletes anything;
//  * writes and reads are quorum operations (W + R > N): a write is acked
//    once W replicas took the new version; a read asks up to R live
//    replicas, both with a per-op deadline and bounded retry_backoff
//    against the lossy channel. When the quorum is unreachable (a radio
//    blackout hiding most of the lot) a read degrades gracefully: it
//    serves from any live replica, flagged stale-risk, rather than
//    failing — the availability/consistency trade §V sketches;
//  * repair is self-healing and rate-limited: each maintenance round
//    re-replicates under-replicated objects from a live leased source onto
//    dwell-time-ranked hosts (2210.07337's reliability-driven placement),
//    re-grants leases to recovered original holders, freshens stale live
//    copies, and prunes a suspect only AFTER its replacement landed (swap,
//    not discard) — never a member whose copy is the last up-to-date one.
//
// Quorum reads return exactly the acked version (the coordinator clamps to
// what it promised; R-of-N intersection guarantees a fresh copy answers),
// so monotonic reads per client hold by construction — which is what lets
// the InvariantOracle treat any regression as a hard violation.
//
// Determinism: placement ranking, repair order and victim resolution are
// pure functions of the cloud state; the only randomness is the
// service's own forked RNG used for retry jitter, so a run is bit-identical
// per seed and completely absent when the service is disabled.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/lease.h"
#include "util/quantile_sketch.h"
#include "vcloud/cloud.h"
#include "vcloud/invariant_oracle.h"

namespace vcl::storage {

// The service has one shape: N = 3 replicas, W = 2, R = 2 (W + R > N is a
// static_assert), 3 s leases, a 2 s per-op deadline with 4 send attempts,
// and repair rounds at least 1 s apart of at most 2 copies each (the named
// constants in service.cpp). The only setting is whether it runs.
struct StorageConfig {
  bool enabled = false;  // gate used by core::SystemConfig wiring
};

struct StorageStats {
  std::size_t objects = 0;
  std::size_t writes_acked = 0;
  std::size_t writes_failed = 0;   // could not reach W replicas in time
  std::size_t reads_quorum = 0;    // fresh quorum reads
  std::size_t reads_degraded = 0;  // served below R, flagged stale-risk
  std::size_t reads_failed = 0;    // no live replica answered at all
  std::size_t leases_granted = 0;
  std::size_t leases_renewed = 0;
  std::size_t leases_expired = 0;   // held -> suspect transitions observed
  std::size_t leases_regranted = 0;  // repair re-granted a recovered holder
  std::size_t repair_copies = 0;     // replacement copies landed
  std::size_t freshen_copies = 0;    // stale live replicas caught up
  std::size_t pruned = 0;            // suspects swapped out of placements
  double mb_copied = 0.0;            // repair + freshen traffic
  // Per-op virtual latency (retry backoff accrued within the op deadline):
  // fixed-memory sketches, so tail percentiles survive million-op runs.
  QuantileSketch put_latency_tail;
  QuantileSketch get_latency_tail;
};

struct WriteResult {
  bool acked = false;
  std::uint64_t version = 0;   // version written (0 = nothing reached a host)
  std::size_t replicas = 0;    // copies that took the version
};

struct ReadResult {
  bool ok = false;        // some replica answered
  bool degraded = false;  // below quorum or stale: stale-risk flagged
  std::uint64_t version = 0;
  std::size_t responses = 0;
};

class StorageService final : public vcloud::StorageIntrospection {
 public:
  StorageService(net::Network& net, vcloud::VehicularCloud& cloud, Rng rng);

  // Claims the cloud's heartbeat hook (lease renewal) and refresh hook
  // (lease bookkeeping + repair). Call once, after the cloud's attach().
  void attach();

  // Creates an object: places it on up to N dwell-ranked live members and
  // grants their leases. The object holds no data until the first put.
  FileId create(SimTime now);

  // Quorum write of the next version. Bounded retries within the 2 s op
  // deadline; acked once W live replicas took the version.
  WriteResult put(std::uint64_t client, FileId object, SimTime now);

  // Quorum read. Fresh (R responses covering the acked version) returns
  // exactly the acked version; otherwise degrades to the best live copy,
  // flagged stale-risk. ok=false when nothing answered.
  ReadResult get(std::uint64_t client, FileId object, SimTime now);

  // Deterministic victim resolution for storage-targeted chaos storms: the
  // live holder (smallest id) of the object selected by `tag` among the
  // current objects (tag mod object count, ascending id order). Invalid
  // when there is nothing to target — the injector falls back to its
  // ordinary victim pool.
  [[nodiscard]] VehicleId storm_victim(std::uint64_t tag) const;

  [[nodiscard]] const StorageStats& stats() const { return stats_; }

  // --- StorageIntrospection (invariant oracle view) --------------------------
  void for_each_object(
      const std::function<void(const vcloud::StorageObjectView&)>& fn)
      const override;
  [[nodiscard]] std::size_t replica_target() const override;
  [[nodiscard]] std::size_t write_quorum() const override;

  // Nullable hookups, same inertness contract as the cloud's.
  void set_oracle(vcloud::InvariantOracle* oracle) { oracle_ = oracle; }
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }
  // Always-on forensics (DESIGN.md §12): lease expiries and quorum
  // degradations are the storage clues an incident bundle needs.
  void set_flight(obs::FlightRecorder* flight) { flight_ = flight; }
  void register_metrics(obs::MetricsRegistry& metrics) const;

 private:
  struct ObjectState {
    std::vector<VehicleId> placement;  // current member set, ≤ N
    std::map<std::uint64_t, std::uint64_t> copy_version;  // holder -> version
    LeaseTable leases;
    std::uint64_t acked_version = 0;   // highest client-acked version
    std::uint64_t latest_version = 0;  // highest version on any replica
    bool loss_logged = false;
  };

  // Heartbeat hook: renews `v`'s leases on every object it holds.
  void on_heartbeat(VehicleId v, SimTime now);
  // Refresh hook: lease bookkeeping, re-grants, then rate-limited repair.
  void maintenance(SimTime now);
  void repair_object(std::uint64_t id, ObjectState& obj, SimTime now,
                     std::size_t& budget);
  // Physical copy survival: the holder exists in traffic and has not
  // crashed. Independent of cloud membership — a falsely-declared-dead
  // worker still has the bytes.
  [[nodiscard]] bool holder_alive(VehicleId v) const;
  // Send one storage message src-of-record (broker) <-> holder; charges the
  // channel and consumes its loss sampling.
  bool send_to(VehicleId v, net::MessageKind kind, std::size_t bytes);
  bool send_between(VehicleId src, VehicleId dst, net::MessageKind kind,
                    std::size_t bytes);
  // The attempt loop of put() and get(), on the op's virtual timeline
  // (put() describes it): each attempt sends `kind` to every live placement
  // member not yet in `replied`, appends each that takes it and runs
  // `on_reply(v, leg start, leg span)`, which draws no RNG. Stops at
  // `quorum` replies, the last attempt, or past kOpDeadline; returns the
  // op's virtual duration.
  SimTime attempt_quorum(
      const std::vector<VehicleId>& placement, net::MessageKind kind,
      std::size_t bytes, std::size_t quorum, SimTime now,
      const obs::TraceContext& op_ctx, std::vector<VehicleId>& replied,
      const std::function<void(VehicleId, SimTime, const obs::TraceContext&)>&
          on_reply);
  // Live cloud members not in `exclude`, ranked by estimated dwell time in
  // the cloud region (descending; ties by ascending id).
  [[nodiscard]] std::vector<VehicleId> ranked_candidates(
      const std::vector<VehicleId>& exclude) const;
  void grant_lease(ObjectState& obj, VehicleId v, SimTime now);
  void prune_holder(ObjectState& obj, VehicleId v);

  net::Network& net_;
  vcloud::VehicularCloud& cloud_;
  Rng rng_;
  std::map<std::uint64_t, ObjectState> objects_;  // ordered: deterministic
  std::uint64_t next_object_id_ = 1;
  SimTime last_repair_ = -1e300;
  StorageStats stats_;
  vcloud::InvariantOracle* oracle_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
};

}  // namespace vcl::storage
