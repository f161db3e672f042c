// Uniform grid for radius queries over moving points.
//
// The wireless channel asks "who is within r of this transmitter?" once per
// transmission; a grid with cell size ~= the query radius answers that in
// O(points in the 3x3 neighborhood) instead of O(N).
//
// Cells are a dense core::CellArray over a box fixed at construction (the
// world's extent): a cell lookup is an index computation, not a hash probe.
// Points outside the box are clamped into its border cells, which keeps every
// answer exact and only costs speed where points stray far from the box.
//
// Each cell's bucket is kept sorted by id, with positions inline, so a query
// scans (id, pos) pairs sequentially and each cell yields an id-sorted run of
// hits; merging those few runs gives the deterministic id order callers
// iterate in without sorting the whole result. Point records live in a dense
// vector indexed by id (ids are expected to be small and dense — node ids
// are) and remember their cell, so the per-tick update() of a point that
// stays in its cell is a binary search in one small bucket.
//
// Queries reuse internal merge buffers: one grid must not be queried from
// two threads at once (its one owner, net::Network, is single-threaded).
#pragma once

#include <cstdint>
#include <vector>

#include "core/cell_array.h"
#include "core/vec2.h"

namespace vanet::core {

class SpatialGrid {
 public:
  using Id = std::uint32_t;

  /// `cell_size` should be on the order of the most common query radius;
  /// `extent` is the box the points are expected to stay in (empty: one
  /// cell, every query scans every point).
  explicit SpatialGrid(double cell_size, const Box& extent = {});

  /// Insert `id` at `pos`; `id` must not already be present.
  void insert(Id id, Vec2 pos);
  /// Move `id` to `pos`; `id` must be present.
  void update(Id id, Vec2 pos);
  /// Remove `id`; `id` must be present.
  void remove(Id id);
  bool contains(Id id) const {
    return id < slots_.size() && slots_[id] != kAbsent;
  }
  Vec2 position(Id id) const;

  /// Ids strictly within `radius` of `center` (excluding `exclude` if given).
  /// Results are sorted by id for determinism.
  std::vector<Id> query_radius(Vec2 center, double radius) const;
  std::vector<Id> query_radius(Vec2 center, double radius, Id exclude) const;

  /// `exclude` value meaning "exclude nothing" for query_radius_into.
  static constexpr Id kNoExclude = static_cast<Id>(-1);

  /// As query_radius, but replaces the contents of `out` instead of
  /// allocating — the hot-path form (reception fan-out runs once per frame).
  void query_radius_into(Vec2 center, double radius, Id exclude,
                         std::vector<Id>& out) const;

  std::size_t size() const { return count_; }

 private:
  /// Bucket element: position inline so queries scan sequentially.
  struct Item {
    Id id = 0;
    Vec2 pos;
  };
  using Bucket = std::vector<Item>;
  /// slots_ value of an id that is not present.
  static constexpr std::uint32_t kAbsent = static_cast<std::uint32_t>(-1);

  /// `id`'s Item in its bucket (which must hold it).
  const Item& item(Id id) const;
  void add_to(std::uint32_t cell, Id id, Vec2 pos);
  void erase_from(std::uint32_t cell, Id id);

  CellArray<Bucket> cells_;
  std::vector<std::uint32_t> slots_;  ///< id -> cell index, or kAbsent
  std::size_t count_ = 0;
  /// Query scratch: end offset in `out` of each cell's run of hits, and the
  /// merge target.
  mutable std::vector<std::uint32_t> run_ends_;
  mutable std::vector<Id> merge_buf_;
};

}  // namespace vanet::core
