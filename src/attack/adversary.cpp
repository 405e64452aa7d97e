#include "attack/adversary.h"

#include <algorithm>

namespace vcl::attack {

void AdversaryRoster::recruit(const mobility::TrafficModel& traffic,
                              double fraction, Rng& rng) {
  std::vector<VehicleId> ids;
  ids.reserve(traffic.vehicle_count());
  for (const auto& [vid, v] : traffic.vehicles()) ids.push_back(v.id);
  std::sort(ids.begin(), ids.end());  // deterministic base order
  rng.shuffle(ids);
  const auto n = static_cast<std::size_t>(
      fraction * static_cast<double>(ids.size()) + 0.5);
  for (std::size_t i = 0; i < n && i < ids.size(); ++i) add(ids[i]);
}

std::vector<VehicleId> AdversaryRoster::members() const {
  std::vector<VehicleId> out;
  out.reserve(members_.size());
  for (const std::uint64_t v : members_) out.push_back(VehicleId{v});
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vcl::attack
