#include "core/snapshot.h"

namespace vcl::core {
namespace {

constexpr SimTime kSnapshotPeriod = 5.0;

}  // namespace

TopologyArchive::TopologyArchive(net::Network& net, std::size_t retention,
                                 CredentialFn credential_of)
    : net_(net), retention_(retention),
      credential_of_(std::move(credential_of)) {
  if (!credential_of_) {
    credential_of_ = [](VehicleId v) { return v.value(); };
  }
}

void TopologyArchive::attach() {
  net_.simulator().schedule_every(kSnapshotPeriod, [this] { capture(); }, -1.0,
                                  "core.snapshot");
}

void TopologyArchive::capture() {
  TopologySnapshot snap;
  snap.taken_at = net_.simulator().now();
  snap.entries.reserve(net_.traffic().vehicle_count());
  for (const auto& [vid, v] : net_.traffic().vehicles()) {
    snap.entries.push_back(
        SnapshotEntry{v.id, credential_of_(v.id), v.pos});
  }
  snapshots_.push_back(std::move(snap));
  while (snapshots_.size() > retention_) snapshots_.pop_front();
}

std::vector<SnapshotEntry> TopologyArchive::query(geo::Vec2 where,
                                                  double radius, SimTime t0,
                                                  SimTime t1) const {
  std::vector<SnapshotEntry> out;
  for (const TopologySnapshot& snap : snapshots_) {
    if (snap.taken_at < t0 || snap.taken_at > t1) continue;
    for (const SnapshotEntry& e : snap.entries) {
      if (geo::distance(e.pos, where) <= radius) out.push_back(e);
    }
  }
  return out;
}

std::size_t TopologyArchive::records_held() const {
  std::size_t n = 0;
  for (const TopologySnapshot& snap : snapshots_) n += snap.entries.size();
  return n;
}

}  // namespace vcl::core
