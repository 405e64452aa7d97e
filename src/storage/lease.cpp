#include "storage/lease.h"

#include <algorithm>

namespace vcl::storage {

std::vector<VehicleId> LeaseTable::expired(SimTime now) const {
  std::vector<VehicleId> out;
  for (const auto& [vid, expiry] : expiry_) {
    if (expiry < now) out.push_back(VehicleId{vid});
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vcl::storage
