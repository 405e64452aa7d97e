// Topology archive: authority-side snapshots for attacker identification
// (paper §V.A: "the authority should be able to ... recover the snapshot of
// the topology in an area so as to identify the attackers ... the more
// management data recorded, the more possible that the user privacy will be
// violated").
//
// A bounded ring of snapshots taken every 5 s (who was where, under which
// credential) supports forensic queries — "which credentials were within R
// of position P around time T?" — while exposing the exact management/
// privacy trade-off: retention determines both forensic recall and the
// volume of location data at risk.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "net/network.h"

namespace vcl::core {

struct SnapshotEntry {
  VehicleId vehicle;        // resolvable only by the authority
  std::uint64_t credential; // what was visible on the air
  geo::Vec2 pos;
};

struct TopologySnapshot {
  SimTime taken_at = 0.0;
  std::vector<SnapshotEntry> entries;
};

class TopologyArchive {
 public:
  // `credential_of` maps a vehicle to its currently visible credential
  // (pseudonym id etc.); defaults to the raw vehicle id. The archive keeps
  // the newest `retention` snapshots.
  using CredentialFn = std::function<std::uint64_t(VehicleId)>;

  TopologyArchive(net::Network& net, std::size_t retention,
                  CredentialFn credential_of = {});

  void attach();
  void capture();  // public for tests

  // Forensics: all entries within `radius` of `where` in snapshots taken in
  // [t0, t1].
  [[nodiscard]] std::vector<SnapshotEntry> query(geo::Vec2 where,
                                                 double radius, SimTime t0,
                                                 SimTime t1) const;

  [[nodiscard]] std::size_t snapshot_count() const {
    return snapshots_.size();
  }
  // Total location records held — the privacy-exposure metric.
  [[nodiscard]] std::size_t records_held() const;
  [[nodiscard]] SimTime oldest() const {
    return snapshots_.empty() ? 0.0 : snapshots_.front().taken_at;
  }

 private:
  net::Network& net_;
  std::size_t retention_;
  CredentialFn credential_of_;
  std::deque<TopologySnapshot> snapshots_;
};

}  // namespace vcl::core
