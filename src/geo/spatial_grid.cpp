#include "geo/spatial_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vcl::geo {

std::pair<std::int64_t, std::int64_t> SpatialGrid::cell_of(Vec2 p) const {
  return {static_cast<std::int64_t>(std::floor(p.x / cell_size_)),
          static_cast<std::int64_t>(std::floor(p.y / cell_size_))};
}

void SpatialGrid::build(const std::vector<Vec2>& points) {
  pos_.resize(points.size());
  index_.resize(points.size());
  if (points.empty()) {
    nx_ = ny_ = 0;
    start_.assign(1, 0);
    return;
  }
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  std::int64_t x_lo = kMax, x_hi = kMin, y_lo = kMax, y_hi = kMin;
  for (const Vec2 p : points) {
    const auto [cx, cy] = cell_of(p);
    x_lo = std::min(x_lo, cx);
    x_hi = std::max(x_hi, cx);
    y_lo = std::min(y_lo, cy);
    y_hi = std::max(y_hi, cy);
  }
  cx0_ = x_lo;
  cy0_ = y_lo;
  nx_ = x_hi - x_lo + 1;
  ny_ = y_hi - y_lo + 1;
  const auto cells = static_cast<std::size_t>(nx_ * ny_);

  // Counting sort into cells; a stable placement keeps build order within
  // each cell.
  cell_scratch_.resize(points.size());
  start_.assign(cells + 1, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto [cx, cy] = cell_of(points[i]);
    const auto c = static_cast<std::size_t>((cx - cx0_) * ny_ + (cy - cy0_));
    cell_scratch_[i] = c;
    ++start_[c + 1];
  }
  for (std::size_t c = 0; c < cells; ++c) start_[c + 1] += start_[c];
  // start_[c] serves as cell c's write cursor; afterwards it has advanced
  // to the cell's end, which is the next cell's start.
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint32_t at = start_[cell_scratch_[i]]++;
    pos_[at] = points[i];
    index_[at] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t c = cells; c > 0; --c) start_[c] = start_[c - 1];
  start_[0] = 0;
}

template <typename Fn>
void SpatialGrid::for_each_in_range(Vec2 center, double radius,
                                    Fn&& fn) const {
  if (pos_.empty()) return;
  const double r2 = radius * radius;
  const auto [qx0, qy0] = cell_of({center.x - radius, center.y - radius});
  const auto [qx1, qy1] = cell_of({center.x + radius, center.y + radius});
  const std::int64_t x_lo = std::max(qx0, cx0_);
  const std::int64_t x_hi = std::min(qx1, cx0_ + nx_ - 1);
  const std::int64_t y_lo = std::max(qy0, cy0_) - cy0_;
  const std::int64_t y_hi = std::min(qy1, cy0_ + ny_ - 1) - cy0_;
  if (y_lo > y_hi) return;
  for (std::int64_t cx = x_lo; cx <= x_hi; ++cx) {
    // Cells (cx, y_lo..y_hi) are adjacent: one contiguous run of points.
    const std::int64_t column = (cx - cx0_) * ny_;
    const std::uint32_t end = start_[static_cast<std::size_t>(column + y_hi + 1)];
    for (std::uint32_t k = start_[static_cast<std::size_t>(column + y_lo)];
         k < end; ++k) {
      if (distance2(pos_[k], center) <= r2) fn(index_[k]);
    }
  }
}

void SpatialGrid::query(Vec2 center, double radius,
                        std::vector<std::uint32_t>& out) const {
  out.clear();
  for_each_in_range(center, radius,
                    [&out](std::uint32_t i) { out.push_back(i); });
}

std::size_t SpatialGrid::count(Vec2 center, double radius) const {
  std::size_t n = 0;
  for_each_in_range(center, radius, [&n](std::uint32_t) { ++n; });
  return n;
}

}  // namespace vcl::geo
