// Road-side units: fixed infrastructure nodes with a longer radio range.
#pragma once

#include <vector>

#include "geo/road_network.h"
#include "geo/vec2.h"
#include "util/ids.h"
#include "util/time.h"

namespace vcl::net {

struct Rsu {
  RsuId id;
  geo::Vec2 pos;
  double range = 500.0;  // radio range, meters (better antenna than OBUs)
  bool online = true;
};

// Owns the RSU population; placement helpers cover the common deployments.
class RsuField {
 public:
  RsuId add(geo::Vec2 pos, double range = 500.0);

  [[nodiscard]] const Rsu* find(RsuId id) const;
  [[nodiscard]] const std::vector<Rsu>& all() const { return rsus_; }
  [[nodiscard]] std::size_t count() const { return rsus_.size(); }
  [[nodiscard]] std::size_t online_count() const;

  void set_online(RsuId id, bool online);
  // Takes every RSU offline (disaster scenario, paper §IV.A.2 / §V.A).
  void fail_all();
  void restore_all();

  // Nearest online RSU whose range covers `pos`; nullptr when uncovered.
  [[nodiscard]] const Rsu* covering(geo::Vec2 pos) const;

  // Places RSUs on a regular grid over the road network's bounding box.
  void place_grid(const geo::RoadNetwork& net, double spacing,
                  double range = 500.0);

 private:
  std::vector<Rsu> rsus_;
};

}  // namespace vcl::net
