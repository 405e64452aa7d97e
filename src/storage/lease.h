// Lease-based replica membership (paper §V; arXiv 1711.02014's storage
// framing of the vehicular dependability problem).
//
// A replica holder's right to serve a copy is a *lease*: a grant with an
// expiry instant, renewed every time the broker hears the holder's
// heartbeat. A lease that expires does NOT delete anything — the holder
// becomes *suspect* and the repair pipeline decides whether to re-grant
// (the holder came back) or re-replicate elsewhere (it did not). This is
// the storage-side analogue of the failure detector: expiry is a liveness
// hint, never an authority on data.
//
// Pure bookkeeping, no simulator dependency — the StorageService feeds in
// grant/renew/revoke observations and queries held()/expired().
//
// Timing contract (the chaos soak leans on these exact edges):
//  * a lease lasts 3 s: one granted or renewed at time t is held through
//    t + 3 INCLUSIVE: held(v, t + 3) is true;
//  * a renewal racing expiry at the same sim time therefore succeeds —
//    renew(v, expiry_instant) extends the lease (renewal wins the race);
//  * expired(now) lists holders whose expiry is strictly before `now`.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/ids.h"
#include "util/time.h"

namespace vcl::storage {

class LeaseTable {
 public:
  // Grants (or re-grants) a lease expiring at now + 3 s.
  void grant(VehicleId v, SimTime now);
  // Renews only a lease that is still held at `now` (inclusive of the
  // expiry instant); a renewal of an expired or unknown lease is ignored —
  // the repair pipeline must explicitly re-grant. Returns whether the
  // renewal took effect.
  bool renew(VehicleId v, SimTime now);
  void revoke(VehicleId v) { expiry_.erase(v.value()); }

  // Held = granted and not yet expired (expiry instant inclusive).
  [[nodiscard]] bool held(VehicleId v, SimTime now) const {
    const auto it = expiry_.find(v.value());
    return it != expiry_.end() && now <= it->second;
  }
  // Known = granted at some point and not revoked (may be expired).
  [[nodiscard]] bool known(VehicleId v) const {
    return expiry_.find(v.value()) != expiry_.end();
  }
  [[nodiscard]] SimTime expiry(VehicleId v) const {
    const auto it = expiry_.find(v.value());
    return it == expiry_.end() ? -1.0 : it->second;
  }

  // Known holders whose lease expired strictly before `now`, sorted by id
  // (deterministic iteration for the repair pipeline).
  [[nodiscard]] std::vector<VehicleId> expired(SimTime now) const;

  [[nodiscard]] std::size_t size() const { return expiry_.size(); }

 private:
  std::unordered_map<std::uint64_t, SimTime> expiry_;
};

}  // namespace vcl::storage
