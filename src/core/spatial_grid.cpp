#include "core/spatial_grid.h"

#include <algorithm>
#include <utility>

#include "core/assert.h"

namespace vanet::core {

namespace {

struct ItemIdLess {
  template <typename Item>
  bool operator()(const Item& item, SpatialGrid::Id id) const {
    return item.id < id;
  }
};

/// Merge the sorted runs [a, mid) and [mid, end) into `out`, choosing each
/// element with a conditional move instead of a branch.
void merge_runs(const SpatialGrid::Id* a, const SpatialGrid::Id* mid,
                const SpatialGrid::Id* end, SpatialGrid::Id* out) {
  const SpatialGrid::Id* b = mid;
  while (a != mid && b != end) {
    const bool take_b = *b < *a;
    *out++ = take_b ? *b : *a;
    a += static_cast<std::size_t>(!take_b);
    b += static_cast<std::size_t>(take_b);
  }
  out = std::copy(a, mid, out);
  std::copy(b, end, out);
}

}  // namespace

SpatialGrid::SpatialGrid(double cell_size, const Box& extent)
    : cells_{cell_size, extent} {}

void SpatialGrid::add_to(std::uint32_t cell, Id id, Vec2 pos) {
  Bucket& bucket = cells_[cell];
  const auto at =
      std::lower_bound(bucket.begin(), bucket.end(), id, ItemIdLess{});
  bucket.insert(at, Item{id, pos});
  slots_[id] = cell;
}

void SpatialGrid::erase_from(std::uint32_t cell, Id id) {
  Bucket& bucket = cells_[cell];
  bucket.erase(
      std::lower_bound(bucket.begin(), bucket.end(), id, ItemIdLess{}));
}

void SpatialGrid::insert(Id id, Vec2 pos) {
  if (id >= slots_.size()) slots_.resize(id + 1, kAbsent);
  VANET_ASSERT_MSG(slots_[id] == kAbsent, "duplicate insert");
  add_to(static_cast<std::uint32_t>(cells_.index(pos)), id, pos);
}

void SpatialGrid::update(Id id, Vec2 pos) {
  VANET_ASSERT_MSG(contains(id), "update of unknown id");
  const auto cell = static_cast<std::uint32_t>(cells_.index(pos));
  if (slots_[id] == cell) {
    Bucket& bucket = cells_[cell];
    std::lower_bound(bucket.begin(), bucket.end(), id, ItemIdLess{})->pos = pos;
    return;
  }
  erase_from(slots_[id], id);
  add_to(cell, id, pos);
}

void SpatialGrid::query_radius_into(Vec2 center, double radius, Id exclude,
                                    std::vector<Id>& out) const {
  out.clear();
  run_ends_.clear();
  const double r2 = radius * radius;
  const Vec2 reach{radius, radius};
  cells_.for_each(center - reach, center + reach, [&](const Bucket& bucket) {
    // Branch-free compaction: write every id, advance past the hits only
    // (about half the candidates, so a branch would mispredict constantly).
    const std::size_t before = out.size();
    out.resize(before + bucket.size());
    Id* w = out.data() + before;
    for (const Item& item : bucket) {
      *w = item.id;
      w += static_cast<std::size_t>(item.id != exclude) &
           static_cast<std::size_t>((item.pos - center).norm_sq() < r2);
    }
    out.resize(static_cast<std::size_t>(w - out.data()));
    if (out.size() != before) {
      run_ends_.push_back(static_cast<std::uint32_t>(out.size()));
    }
    return false;
  });
  // Each run is id-sorted (buckets are) and runs are disjoint; merge them
  // pairwise, ping-ponging between `out` and merge_buf_, into the
  // deterministic id order every caller iterates in.
  if (run_ends_.size() < 2) return;
  merge_buf_.resize(out.size());
  Id* src = out.data();
  Id* dst = merge_buf_.data();
  while (run_ends_.size() > 1) {
    std::size_t kept = 0;
    std::uint32_t begin = 0;
    for (std::size_t k = 0; k < run_ends_.size(); k += 2) {
      const std::uint32_t mid = run_ends_[k];
      const std::uint32_t end =
          k + 1 < run_ends_.size() ? run_ends_[k + 1] : mid;
      merge_runs(src + begin, src + mid, src + end, dst + begin);
      run_ends_[kept++] = end;
      begin = end;
    }
    run_ends_.resize(kept);
    std::swap(src, dst);
  }
  if (src != out.data()) std::copy(src, src + out.size(), out.data());
}

}  // namespace vanet::core
