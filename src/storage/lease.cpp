#include "storage/lease.h"

#include <algorithm>

namespace vcl::storage {
namespace {

constexpr SimTime kLeaseDuration = 3.0;  // heartbeat-renewed

}  // namespace

void LeaseTable::grant(VehicleId v, SimTime now) {
  expiry_[v.value()] = now + kLeaseDuration;
}

bool LeaseTable::renew(VehicleId v, SimTime now) {
  auto it = expiry_.find(v.value());
  if (it == expiry_.end() || now > it->second) return false;
  it->second = now + kLeaseDuration;
  return true;
}

std::vector<VehicleId> LeaseTable::expired(SimTime now) const {
  std::vector<VehicleId> out;
  for (const auto& [vid, expiry] : expiry_) {
    if (expiry < now) out.push_back(VehicleId{vid});
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vcl::storage
