#include "storage/service.h"

#include <algorithm>
#include <limits>

#include "vcloud/dwell.h"

namespace vcl::storage {

namespace {

// The one deployment every bench, tool and chaos episode runs: the N = 3,
// W = 2, R = 2 quorum model of arXiv 1711.02014.
constexpr std::size_t kReplicas = 3;     // N: target replica count per object
constexpr std::size_t kWriteQuorum = 2;  // W: acks before a write is acked
constexpr std::size_t kReadQuorum = 2;   // R: responses for a fresh read
static_assert(kWriteQuorum <= kReplicas && kReadQuorum <= kReplicas);
static_assert(kWriteQuorum + kReadQuorum > kReplicas,
              "quorum intersection: else reads can miss every acked copy");
constexpr SimTime kOpDeadline = 2.0;     // per-op retry budget (virtual time)
constexpr SimTime kRepairPeriod = 1.0;   // minimum spacing of repair rounds
constexpr std::size_t kRepairRate = 2;   // max copy attempts per repair round
constexpr std::size_t kObjectBytes = 1 << 20;  // replica payload on the wire
constexpr vcloud::RetryConfig kRetry{true, 4, 0.2, 2.0, 0.5};  // per-op sends

}  // namespace

StorageService::StorageService(net::Network& net,
                               vcloud::VehicularCloud& cloud, Rng rng)
    : net_(net), cloud_(cloud), rng_(rng) {}

std::size_t StorageService::replica_target() const { return kReplicas; }

std::size_t StorageService::write_quorum() const { return kWriteQuorum; }

void StorageService::attach() {
  cloud_.set_heartbeat_hook(
      [this](VehicleId v, SimTime now) { on_heartbeat(v, now); });
  cloud_.set_refresh_hook([this](SimTime now) { maintenance(now); });
}

bool StorageService::holder_alive(VehicleId v) const {
  return net_.traffic().find(v) != nullptr && !cloud_.worker_crashed(v);
}

bool StorageService::send_between(VehicleId src, VehicleId dst,
                                  net::MessageKind kind, std::size_t bytes) {
  if (src == dst) return true;  // local disk, no radio leg
  net::Message msg;
  msg.id = net_.next_message_id();
  msg.kind = kind;
  msg.src = net::Address::vehicle(src);
  msg.dst = net::Address::vehicle(dst);
  msg.size_bytes = bytes;
  return net_.send(msg);
}

bool StorageService::send_to(VehicleId v, net::MessageKind kind,
                             std::size_t bytes) {
  const VehicleId broker = cloud_.broker();
  if (!broker.valid()) return false;  // no coordinator, no op
  return send_between(broker, v, kind, bytes);
}

std::vector<VehicleId> StorageService::ranked_candidates(
    const std::vector<VehicleId>& exclude) const {
  const vcloud::CloudRegion region = cloud_.region();
  std::vector<std::pair<double, VehicleId>> ranked;
  for (const VehicleId v : cloud_.worker_ids()) {
    if (cloud_.worker_crashed(v)) continue;
    if (net_.traffic().find(v) == nullptr) continue;
    if (std::find(exclude.begin(), exclude.end(), v) != exclude.end()) {
      continue;
    }
    // Reliability-ranked placement: prefer the hosts expected to stay in
    // the cloud region longest (2210.07337's decomposition argument, with
    // dwell time as the per-component reliability proxy).
    ranked.emplace_back(vcloud::estimate_dwell(net_.traffic(), v,
                                               region.center, region.radius,
                                               vcloud::DwellMode::kKinematic),
                        v);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<VehicleId> out;
  out.reserve(ranked.size());
  for (const auto& [dwell, v] : ranked) out.push_back(v);
  return out;
}

void StorageService::grant_lease(ObjectState& obj, VehicleId v, SimTime now) {
  obj.leases.grant(v, now);
  ++stats_.leases_granted;
}

void StorageService::prune_holder(ObjectState& obj, VehicleId v) {
  obj.leases.revoke(v);
  obj.copy_version.erase(v.value());
  obj.placement.erase(
      std::remove(obj.placement.begin(), obj.placement.end(), v),
      obj.placement.end());
  ++stats_.pruned;
}

FileId StorageService::create(SimTime now) {
  const std::uint64_t id = next_object_id_++;
  ObjectState& obj = objects_[id];
  const std::vector<VehicleId> hosts = ranked_candidates({});
  for (const VehicleId v : hosts) {
    if (obj.placement.size() >= kReplicas) break;
    obj.placement.push_back(v);
    grant_lease(obj, v, now);
  }
  ++stats_.objects;
  if (trace_ != nullptr) {
    trace_->record(now, obs::TraceCategory::kCloud, "storage.create",
                   {{"object", static_cast<double>(id)},
                    {"replicas", static_cast<double>(obj.placement.size())}});
  }
  return FileId{id};
}

SimTime StorageService::attempt_quorum(
    const std::vector<VehicleId>& placement, net::MessageKind kind,
    std::size_t bytes, std::size_t quorum, SimTime now,
    const obs::TraceContext& op_ctx, std::vector<VehicleId>& replied,
    const std::function<void(VehicleId, SimTime, const obs::TraceContext&)>&
        on_reply) {
  const bool traced = trace_ != nullptr;
  SimTime elapsed = 0.0;
  for (int attempt = 1; attempt <= kRetry.max_attempts; ++attempt) {
    const SimTime leg_begin = elapsed;
    obs::TraceContext leg_ctx;
    if (traced) {
      leg_ctx.trace_id = op_ctx.trace_id;
      leg_ctx.span_id = trace_->begin_span(
          now + leg_begin, obs::TraceCategory::kStorage, "storage.leg.attempt",
          op_ctx, {{"attempt", static_cast<double>(attempt)}});
    }
    for (const VehicleId v : placement) {
      if (std::find(replied.begin(), replied.end(), v) != replied.end()) {
        continue;
      }
      if (!holder_alive(v)) continue;
      if (!send_to(v, kind, bytes)) continue;
      replied.push_back(v);
      on_reply(v, now + leg_begin, leg_ctx);
    }
    if (replied.size() >= quorum || attempt == kRetry.max_attempts) {
      if (traced) {
        trace_->end_span(now + elapsed, obs::TraceCategory::kStorage,
                         "storage.leg.attempt", leg_ctx);
      }
      break;
    }
    elapsed += vcloud::retry_backoff(kRetry, attempt, rng_);
    if (traced) {
      trace_->end_span(now + elapsed, obs::TraceCategory::kStorage,
                       "storage.leg.attempt", leg_ctx,
                       {{"backoff", elapsed - leg_begin}});
    }
    if (elapsed > kOpDeadline) break;
  }
  return elapsed;
}

WriteResult StorageService::put(std::uint64_t client, FileId object,
                                SimTime now) {
  WriteResult result;
  auto it = objects_.find(object.value());
  if (it == objects_.end()) return result;
  ObjectState& obj = it->second;
  const std::uint64_t version = obj.latest_version + 1;

  // Bounded quorum write: every attempt offers the version to each
  // placement member that has not taken it yet; attempts stop once W
  // replicas have it or the op's virtual retry budget (kOpDeadline worth of
  // retry_backoff) runs out. Replies and retries happen within one sim
  // instant — the channel's sampled losses (blackouts included) are what
  // the retries fight.
  // Storage op spans run over the op's VIRTUAL timeline: all retries happen
  // within one sim instant while `elapsed` accrues backoff, so the root
  // span covers [now, now + elapsed] and one storage.leg.attempt child per
  // attempt covers [its start, the next attempt's start) — the legs
  // partition the op end-to-end exactly (tested in obs_test). Each replica
  // that takes the version leaves a storage.replica.write instant in the
  // leg, so the span tree carries the full replica set. Tracing draws no
  // RNG, so an instrumented run stays bit-identical.
  const bool traced = trace_ != nullptr;
  obs::TraceContext op_ctx;
  if (traced) {
    op_ctx.trace_id = trace_->new_trace_id();
    op_ctx.span_id = trace_->begin_span(
        now, obs::TraceCategory::kStorage, "storage.put", op_ctx,
        {{"object", static_cast<double>(object.value())},
         {"client", static_cast<double>(client)},
         {"version", static_cast<double>(version)},
         {"replicas", static_cast<double>(obj.placement.size())}});
  }

  std::vector<VehicleId> written;
  const SimTime elapsed = attempt_quorum(
      obj.placement, net::MessageKind::kStorageWrite, kObjectBytes,
      kWriteQuorum, now, op_ctx, written,
      [&](VehicleId v, SimTime at, const obs::TraceContext& leg_ctx) {
        obj.copy_version[v.value()] = version;
        if (traced) {
          trace_->record(at, obs::TraceCategory::kStorage,
                         "storage.replica.write", leg_ctx,
                         {{"holder", static_cast<double>(v.value())},
                          {"version", static_cast<double>(version)}});
        }
      });
  stats_.put_latency_tail.add(elapsed);

  if (!written.empty()) obj.latest_version = version;
  result.version = written.empty() ? 0 : version;
  result.replicas = written.size();
  if (written.size() >= kWriteQuorum) {
    obj.acked_version = version;
    obj.loss_logged = false;
    result.acked = true;
    ++stats_.writes_acked;
    if (oracle_ != nullptr) {
      oracle_->on_storage_ack(object, version, written, now);
    }
    if (trace_ != nullptr) {
      trace_->record(now, obs::TraceCategory::kCloud, "storage.write.ack",
                     {{"object", static_cast<double>(object.value())},
                      {"version", static_cast<double>(version)},
                      {"client", static_cast<double>(client)},
                      {"replicas", static_cast<double>(written.size())}});
    }
  } else {
    ++stats_.writes_failed;
    if (trace_ != nullptr) {
      trace_->record(now, obs::TraceCategory::kCloud, "storage.write.fail",
                     {{"object", static_cast<double>(object.value())},
                      {"client", static_cast<double>(client)},
                      {"replicas", static_cast<double>(written.size())}});
    }
    if (flight_ != nullptr) {
      flight_->record(now, obs::FlightCategory::kQuorum,
                      "quorum.write.failed", object.value(), client,
                      static_cast<double>(written.size()));
    }
  }
  if (traced) {
    trace_->end_span(now + elapsed, obs::TraceCategory::kStorage,
                     "storage.put", op_ctx,
                     {{"acked", result.acked ? 1.0 : 0.0},
                      {"replicas", static_cast<double>(written.size())}});
  }
  return result;
}

ReadResult StorageService::get(std::uint64_t client, FileId object,
                               SimTime now) {
  ReadResult result;
  auto it = objects_.find(object.value());
  if (it == objects_.end()) return result;
  ObjectState& obj = it->second;

  // Same virtual-timeline span structure as put(): root storage.get over
  // [now, now + elapsed], attempt legs partitioning it, and one
  // storage.replica.read instant per responding holder (the replica set).
  const bool traced = trace_ != nullptr;
  obs::TraceContext op_ctx;
  if (traced) {
    op_ctx.trace_id = trace_->new_trace_id();
    op_ctx.span_id = trace_->begin_span(
        now, obs::TraceCategory::kStorage, "storage.get", op_ctx,
        {{"object", static_cast<double>(object.value())},
         {"client", static_cast<double>(client)},
         {"replicas", static_cast<double>(obj.placement.size())}});
  }

  std::vector<VehicleId> answered;
  std::uint64_t max_seen = 0;
  const SimTime elapsed = attempt_quorum(
      obj.placement, net::MessageKind::kStorageRead, 256, kReadQuorum, now,
      op_ctx, answered,
      [&](VehicleId v, SimTime at, const obs::TraceContext& leg_ctx) {
        const auto cv = obj.copy_version.find(v.value());
        const std::uint64_t seen =
            cv != obj.copy_version.end() ? cv->second : 0;
        max_seen = std::max(max_seen, seen);
        if (traced) {
          trace_->record(at, obs::TraceCategory::kStorage,
                         "storage.replica.read", leg_ctx,
                         {{"holder", static_cast<double>(v.value())},
                          {"version", static_cast<double>(seen)}});
        }
      });
  stats_.get_latency_tail.add(elapsed);
  const auto end_op_span = [&](double ok, double degraded) {
    if (!traced) return;
    trace_->end_span(now + elapsed, obs::TraceCategory::kStorage,
                     "storage.get", op_ctx,
                     {{"ok", ok},
                      {"degraded", degraded},
                      {"responses", static_cast<double>(answered.size())}});
  };

  result.responses = answered.size();
  if (answered.empty()) {
    ++stats_.reads_failed;
    if (flight_ != nullptr) {
      flight_->record(now, obs::FlightCategory::kQuorum,
                      "quorum.read.failed", object.value(), client);
    }
    end_op_span(0.0, 0.0);
    return result;
  }
  result.ok = true;
  // Fresh quorum read: R responses whose best copy covers the acked
  // version. The coordinator serves exactly what it acked (R+W>N puts at
  // least one up-to-date holder in any R responses; an unacked newer
  // version on a minority replica stays invisible). Anything less is a
  // degraded read: best live copy, flagged stale-risk.
  if (answered.size() >= kReadQuorum && max_seen >= obj.acked_version) {
    result.version = obj.acked_version;
    ++stats_.reads_quorum;
    if (oracle_ != nullptr) {
      oracle_->on_storage_read(client, object, result.version, false, now);
    }
  } else {
    result.degraded = true;
    result.version = max_seen;
    ++stats_.reads_degraded;
    if (oracle_ != nullptr) {
      oracle_->on_storage_read(client, object, result.version, true, now);
    }
    if (trace_ != nullptr) {
      trace_->record(now, obs::TraceCategory::kCloud, "storage.read.degraded",
                     {{"object", static_cast<double>(object.value())},
                      {"client", static_cast<double>(client)},
                      {"responses", static_cast<double>(answered.size())},
                      {"version", static_cast<double>(max_seen)}});
    }
    if (flight_ != nullptr) {
      flight_->record(now, obs::FlightCategory::kQuorum,
                      "quorum.read.degraded", object.value(), client,
                      static_cast<double>(answered.size()));
    }
  }
  end_op_span(1.0, result.degraded ? 1.0 : 0.0);
  return result;
}

void StorageService::on_heartbeat(VehicleId v, SimTime now) {
  for (auto& [id, obj] : objects_) {
    if (std::find(obj.placement.begin(), obj.placement.end(), v) ==
        obj.placement.end()) {
      continue;
    }
    // Renewal rides the heartbeat; a renewal racing expiry at the same sim
    // time succeeds (LeaseTable's inclusive-expiry contract). An already
    // expired lease is NOT silently revived — the holder stays suspect
    // until the repair pipeline re-grants it.
    if (obj.leases.renew(v, now)) ++stats_.leases_renewed;
  }
}

void StorageService::maintenance(SimTime now) {
  // Lease bookkeeping first: natural expiries become suspects (revoked
  // lease, copy and placement slot retained), and holders that are dead or
  // no longer cloud members lose their leases so the oracle's
  // lease-membership invariant is quiesced before its end-of-round scan.
  for (auto& [id, obj] : objects_) {
    for (const VehicleId v : obj.leases.expired(now)) {
      obj.leases.revoke(v);
      ++stats_.leases_expired;
      if (trace_ != nullptr) {
        trace_->record(now, obs::TraceCategory::kCloud, "storage.lease.expire",
                       {{"object", static_cast<double>(id)},
                        {"holder", static_cast<double>(v.value())}});
      }
      if (flight_ != nullptr) {
        flight_->record(now, obs::FlightCategory::kLease, "lease.expire", id,
                        v.value());
      }
    }
    for (const VehicleId v : obj.placement) {
      if (!obj.leases.known(v)) continue;
      if (!holder_alive(v) || !cloud_.is_worker(v)) obj.leases.revoke(v);
    }
  }

  if (now < last_repair_ + kRepairPeriod) return;
  last_repair_ = now;
  std::size_t budget = kRepairRate;
  for (auto& [id, obj] : objects_) {
    repair_object(id, obj, now, budget);
  }
}

void StorageService::repair_object(std::uint64_t id, ObjectState& obj,
                                   SimTime now, std::size_t& budget) {
  if (cloud_.seeded_bug() == vcloud::SeededBug::kRepairReplace) {
    // The seeded bug: treat every suspect (expired/revoked lease) as
    // permanently gone — prune it AND delete its copy, placing no
    // replacement. A blackout long enough to expire leases then erases
    // every copy with zero holder deaths; the oracle's storage-durability
    // invariant must catch exactly this.
    std::vector<VehicleId> suspects;
    for (const VehicleId v : obj.placement) {
      if (!obj.leases.held(v, now)) suspects.push_back(v);
    }
    std::sort(suspects.begin(), suspects.end());
    for (const VehicleId v : suspects) prune_holder(obj, v);
    return;
  }

  // Snapshot repair counters so an activity-gated storage.repair span can
  // be emitted at the end: idle rounds (the common case) leave no trace, so
  // the ring is not flooded with objects x rounds no-op spans.
  const std::size_t copies0 = stats_.repair_copies;
  const std::size_t freshened0 = stats_.freshen_copies;
  const std::size_t regranted0 = stats_.leases_regranted;
  const std::size_t pruned0 = stats_.pruned;

  // Recovered suspects: the holder is alive and back in the membership —
  // re-grant its lease and keep the copy instead of re-replicating (the
  // cheap path after a blackout or a false-positive kill).
  for (const VehicleId v : obj.placement) {
    if (obj.leases.known(v)) continue;
    if (holder_alive(v) && cloud_.is_worker(v)) {
      grant_lease(obj, v, now);
      ++stats_.leases_regranted;
      if (trace_ != nullptr) {
        trace_->record(now, obs::TraceCategory::kCloud,
                       "storage.lease.regrant",
                       {{"object", static_cast<double>(id)},
                        {"holder", static_cast<double>(v.value())}});
      }
    }
  }

  const auto live_leased = [&](VehicleId v) {
    return holder_alive(v) && obj.leases.held(v, now);
  };
  const auto version_of = [&](VehicleId v) -> std::uint64_t {
    const auto it = obj.copy_version.find(v.value());
    return it == obj.copy_version.end() ? 0 : it->second;
  };
  const auto best_source = [&]() {
    VehicleId src;
    std::uint64_t best = 0;
    for (const VehicleId v : obj.placement) {
      if (!live_leased(v)) continue;
      const std::uint64_t ver = version_of(v);
      if (ver > best || (ver == best && ver > 0 && !src.valid())) {
        best = ver;
        src = v;
      }
    }
    return std::pair<VehicleId, std::uint64_t>{src, best};
  };

  // Freshen: live leased replicas below the best live version catch up, so
  // quorum intersections keep covering the acked version after swaps.
  if (obj.latest_version > 0) {
    const auto [src, best] = best_source();
    if (src.valid()) {
      for (const VehicleId v : obj.placement) {
        if (budget == 0) break;
        if (!live_leased(v) || version_of(v) >= best) continue;
        --budget;  // attempts are charged, success or not (rate limit)
        if (!send_between(src, v, net::MessageKind::kStorageRepair,
                          kObjectBytes)) {
          continue;
        }
        obj.copy_version[v.value()] = best;
        ++stats_.freshen_copies;
        stats_.mb_copied += static_cast<double>(kObjectBytes) / 1e6;
      }
    }
  }

  // Re-replication: swap semantics. A replacement copy must LAND before
  // any suspect is pruned, and a holder is only ever pruned when it is
  // physically dead or demonstrably stale — never the last carrier of the
  // acked version (durability beats placement hygiene).
  const auto prunable = [&](VehicleId v) {
    if (!holder_alive(v)) return true;
    return obj.acked_version > 0 && version_of(v) < obj.acked_version;
  };
  while (budget > 0) {
    std::size_t healthy = 0;
    for (const VehicleId v : obj.placement) healthy += live_leased(v);
    if (healthy >= kReplicas) break;
    bool has_prunable = false;
    for (const VehicleId v : obj.placement) has_prunable |= prunable(v);
    if (obj.placement.size() >= kReplicas && !has_prunable) break;

    const std::vector<VehicleId> candidates = ranked_candidates(obj.placement);
    if (candidates.empty()) break;
    const VehicleId dst = candidates.front();

    if (obj.latest_version > 0) {
      const auto [src, best] = best_source();
      if (!src.valid()) break;  // no live leased source: never risk the rest
      --budget;
      if (!send_between(src, dst, net::MessageKind::kStorageRepair,
                        kObjectBytes)) {
        break;  // channel down (blackout); retry next round
      }
      obj.placement.push_back(dst);
      obj.copy_version[dst.value()] = best;
      grant_lease(obj, dst, now);
      ++stats_.repair_copies;
      stats_.mb_copied += static_cast<double>(kObjectBytes) / 1e6;
      if (trace_ != nullptr) {
        trace_->record(now, obs::TraceCategory::kCloud, "storage.repair.copy",
                       {{"object", static_cast<double>(id)},
                        {"from", static_cast<double>(src.value())},
                        {"to", static_cast<double>(dst.value())},
                        {"version", static_cast<double>(best)}});
      }
    } else {
      // No data yet: membership grows by metadata alone.
      --budget;
      obj.placement.push_back(dst);
      grant_lease(obj, dst, now);
    }

    if (obj.placement.size() > kReplicas) {
      // Swap complete: drop the worst suspect — dead first, stale second.
      std::vector<VehicleId> sorted = obj.placement;
      std::sort(sorted.begin(), sorted.end());
      VehicleId victim;
      for (const VehicleId v : sorted) {
        if (!holder_alive(v)) {
          victim = v;
          break;
        }
      }
      if (!victim.valid()) {
        for (const VehicleId v : sorted) {
          if (prunable(v)) {
            victim = v;
            break;
          }
        }
      }
      if (victim.valid()) {
        prune_holder(obj, victim);
        if (trace_ != nullptr) {
          trace_->record(now, obs::TraceCategory::kCloud,
                         "storage.repair.prune",
                         {{"object", static_cast<double>(id)},
                          {"holder", static_cast<double>(victim.value())}});
        }
      }
    }
  }

  // Repair happens within one sim instant, so an active cycle becomes a
  // zero-duration span: begin and end both stamped `now`, carrying the
  // object id, what the cycle did, and (as child instants) the replica set
  // it left behind. trace_analysis buckets these per object and attributes
  // them to fault windows.
  if (trace_ != nullptr) {
    const std::size_t copies = stats_.repair_copies - copies0;
    const std::size_t freshened = stats_.freshen_copies - freshened0;
    const std::size_t regranted = stats_.leases_regranted - regranted0;
    const std::size_t pruned = stats_.pruned - pruned0;
    if (copies + freshened + regranted + pruned > 0) {
      obs::TraceContext ctx;
      ctx.trace_id = trace_->new_trace_id();
      ctx.span_id = trace_->begin_span(
          now, obs::TraceCategory::kStorage, "storage.repair", ctx,
          {{"object", static_cast<double>(id)},
           {"replicas", static_cast<double>(obj.placement.size())}});
      for (const VehicleId v : obj.placement) {
        trace_->record(now, obs::TraceCategory::kStorage,
                       "storage.repair.replica", ctx,
                       {{"holder", static_cast<double>(v.value())},
                        {"version", static_cast<double>(version_of(v))}});
      }
      trace_->end_span(now, obs::TraceCategory::kStorage, "storage.repair",
                       ctx,
                       {{"copies", static_cast<double>(copies)},
                        {"freshened", static_cast<double>(freshened)},
                        {"regranted", static_cast<double>(regranted)},
                        {"pruned", static_cast<double>(pruned)}});
    }
  }
}

VehicleId StorageService::storm_victim(std::uint64_t tag) const {
  if (objects_.empty()) return VehicleId{};
  auto it = objects_.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(tag % objects_.size()));
  std::vector<VehicleId> live;
  for (const VehicleId v : it->second.placement) {
    if (holder_alive(v)) live.push_back(v);
  }
  if (live.empty()) return VehicleId{};
  return *std::min_element(live.begin(), live.end());
}

void StorageService::for_each_object(
    const std::function<void(const vcloud::StorageObjectView&)>& fn) const {
  const SimTime now = net_.simulator().now();
  for (const auto& [id, obj] : objects_) {
    vcloud::StorageObjectView view;
    view.object = FileId{id};
    view.acked_version = obj.acked_version;
    std::vector<VehicleId> sorted = obj.placement;
    std::sort(sorted.begin(), sorted.end());
    for (const VehicleId v : sorted) {
      vcloud::StorageReplicaView r;
      r.holder = v;
      const auto cv = obj.copy_version.find(v.value());
      r.version = cv == obj.copy_version.end() ? 0 : cv->second;
      r.alive = holder_alive(v);
      r.lease_held = obj.leases.held(v, now);
      view.replicas.push_back(r);
    }
    fn(view);
  }
}

void StorageService::register_metrics(obs::MetricsRegistry& metrics) const {
  metrics.gauge("storage.objects", [this] {
    return static_cast<double>(stats_.objects);
  });
  metrics.gauge("storage.writes.acked", [this] {
    return static_cast<double>(stats_.writes_acked);
  });
  metrics.gauge("storage.reads.degraded", [this] {
    return static_cast<double>(stats_.reads_degraded);
  });
  metrics.gauge("storage.repair.copies", [this] {
    return static_cast<double>(stats_.repair_copies);
  });
  metrics.gauge("storage.leases.expired", [this] {
    return static_cast<double>(stats_.leases_expired);
  });
  metrics.gauge("storage.mb_copied", [this] { return stats_.mb_copied; });
  // Tail distributions of per-op virtual latency; snapshot columns + the
  // sketches.json export both read through these views.
  metrics.sketch_view("storage.put.latency", stats_.put_latency_tail);
  metrics.sketch_view("storage.get.latency", stats_.get_latency_tail);
}

}  // namespace vcl::storage
