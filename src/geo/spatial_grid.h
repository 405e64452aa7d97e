// Uniform grid over a point set, for neighbor queries.
//
// The radio channel asks "who is within R meters of position p" thousands of
// times per simulated second; this grid answers in O(points in nearby cells)
// instead of O(all points).
//
// The grid is rebuilt in one pass over a point set and stored flat
// (compressed sparse rows): one offset per cell of the points' bounding box,
// cells laid out column by column (x outer, y inner), and the points copied
// in cell order. A query walks one contiguous run of points per grid column
// and does no hashing and no allocation beyond its output vector.
//
// Query order is part of the contract: cells by (cx, cy), x outer, y inner;
// within a cell, points in build order. Callers that draw random numbers
// per result (beacon reception) depend on it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "geo/vec2.h"

namespace vcl::geo {

class SpatialGrid {
 public:
  // `cell_size` should be close to the dominant query radius.
  explicit SpatialGrid(double cell_size) : cell_size_(cell_size) {}

  // Replaces the indexed set with `points`; query results are indices into
  // it. Memory is one offset per cell of the points' bounding box, so the
  // grid suits point sets spread over a road network, not arbitrary ones.
  void build(const std::vector<Vec2>& points);

  // Collects the indices of all points within `radius` of `center` into
  // `out` (cleared first), in query order. Exact: candidates are
  // range-checked.
  void query(Vec2 center, double radius, std::vector<std::uint32_t>& out) const;
  // Number of points `query` would return.
  [[nodiscard]] std::size_t count(Vec2 center, double radius) const;

  // The most points in any 3x3 block of cells. A query around an indexed
  // point with a radius of at most the cell size stays inside the block
  // around its cell, so it returns at most this many. O(cells).
  [[nodiscard]] std::size_t max_block_points() const;

  [[nodiscard]] std::size_t size() const { return pos_.size(); }

 private:
  // Calls fn(index) for every point within `radius` of `center`, in query
  // order.
  template <typename Fn>
  void for_each_in_range(Vec2 center, double radius, Fn&& fn) const;

  [[nodiscard]] std::pair<std::int64_t, std::int64_t> cell_of(Vec2 p) const;

  double cell_size_;
  std::int64_t cx0_ = 0;  // bounding box origin, in cells
  std::int64_t cy0_ = 0;
  std::int64_t nx_ = 0;   // bounding box extent, in cells
  std::int64_t ny_ = 0;
  // Cell (cx, cy) holds points [start_[c], start_[c + 1]) with
  // c = (cx - cx0_) * ny_ + (cy - cy0_).
  std::vector<std::uint32_t> start_;
  std::vector<Vec2> pos_;            // points in cell order
  std::vector<std::uint32_t> index_;  // build index of each, in cell order
  std::vector<std::size_t> cell_scratch_;  // build: cell of each point
};

}  // namespace vcl::geo
