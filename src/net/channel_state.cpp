#include "net/channel_state.h"

#include <algorithm>
#include <cmath>

#include "core/assert.h"
#include "core/grid_key.h"

namespace vanet::net {

namespace {

// Heap comparator: std::*_heap build a max-heap, so order by *later* end
// time being "smaller" to get a min-heap on end.
struct EndsLater {
  const std::vector<ChannelState::Tx>& slots;
  bool operator()(ChannelState::Handle a, ChannelState::Handle b) const {
    return slots[a].end > slots[b].end;
  }
};

// Axis-distance prefilter bound for overlap_near: skipping an entry is only
// sound when its norm is *guaranteed* to exceed the range. norm() loses at
// most a few ulp relative to |dx|, so inflating the cutoff by 1e-12
// (>> machine epsilon) makes the skip conservative: every entry the exact
// inclusive test could accept survives the prefilter.
constexpr double kAxisSlack = 1.0 + 1e-12;

}  // namespace

// ---- CellTable --------------------------------------------------------------

std::vector<ChannelState::Handle>* ChannelState::CellTable::find(CellKey key) {
  if (cells_.empty()) return nullptr;
  std::size_t i = hash(key) & mask_;
  for (;;) {
    Cell& c = cells_[i];
    if (c.key == key) return &c.items;
    if (c.key == kEmptyKey) return nullptr;
    i = (i + 1) & mask_;
  }
}

const std::vector<ChannelState::Handle>* ChannelState::CellTable::find(
    CellKey key) const {
  return const_cast<CellTable*>(this)->find(key);
}

void ChannelState::CellTable::grow() {
  const std::size_t new_cap = cells_.empty() ? 64 : cells_.size() * 2;
  std::vector<Cell> old = std::move(cells_);
  cells_.assign(new_cap, Cell{});
  mask_ = new_cap - 1;
  for (Cell& c : old) {
    if (c.key == kEmptyKey) continue;
    std::size_t i = hash(c.key) & mask_;
    while (cells_[i].key != kEmptyKey) i = (i + 1) & mask_;
    cells_[i] = std::move(c);
  }
}

std::vector<ChannelState::Handle>& ChannelState::CellTable::get_or_insert(
    CellKey key) {
  // Grow at 70% load (cells are never erased, so `used_` only goes up).
  if (cells_.empty() || (used_ + 1) * 10 >= cells_.size() * 7) grow();
  std::size_t i = hash(key) & mask_;
  for (;;) {
    Cell& c = cells_[i];
    if (c.key == key) return c.items;
    if (c.key == kEmptyKey) {
      c.key = key;
      ++used_;
      return c.items;
    }
    i = (i + 1) & mask_;
  }
}

// ---- ChannelState -----------------------------------------------------------

ChannelState::ChannelState(double interference_range)
    : cell_size_{interference_range} {
  VANET_ASSERT(interference_range > 0.0);
}

ChannelState::CellKey ChannelState::key_for(core::Vec2 pos) const {
  return core::grid_cell_key(core::grid_cell_coord(pos.x, cell_size_),
                             core::grid_cell_coord(pos.y, cell_size_));
}

ChannelState::Handle ChannelState::add(NodeId tx, core::SimTime start,
                                       core::SimTime end, core::Vec2 pos) {
  Handle h;
  if (!free_slots_.empty()) {
    h = free_slots_.back();
    free_slots_.pop_back();
    slots_[h] = Tx{tx, start, end, pos};
  } else {
    h = static_cast<Handle>(slots_.size());
    slots_.push_back(Tx{tx, start, end, pos});
    slot_cell_.push_back(0);
  }
  const CellKey key = key_for(pos);
  slot_cell_[h] = key;
  cells_.get_or_insert(key).push_back(h);
  by_end_.push_back(h);
  std::push_heap(by_end_.begin(), by_end_.end(), EndsLater{slots_});
  ++live_count_;
  return h;
}

const ChannelState::Tx& ChannelState::get(Handle h) const {
  VANET_ASSERT_MSG(h < slots_.size(), "invalid channel handle");
  return slots_[h];
}

template <typename Fn>
void ChannelState::for_each_in_neighborhood(core::Vec2 pos, Fn&& fn) const {
  const std::int64_t ccx = core::grid_cell_coord(pos.x, cell_size_);
  const std::int64_t ccy = core::grid_cell_coord(pos.y, cell_size_);
  for (std::int64_t cx = ccx - 1; cx <= ccx + 1; ++cx) {
    for (std::int64_t cy = ccy - 1; cy <= ccy + 1; ++cy) {
      const auto* bucket = cells_.find(core::grid_cell_key(cx, cy));
      if (bucket == nullptr) continue;
      for (const Handle h : *bucket) {
        if (fn(h)) return;
      }
    }
  }
}

core::SimTime ChannelState::busy_until(core::Vec2 pos, core::SimTime now,
                                       double range) const {
  VANET_ASSERT(range <= cell_size_);
  core::SimTime busy = core::SimTime::zero();
  const double bound = range * kAxisSlack;
  for_each_in_neighborhood(pos, [&](Handle h) {
    const Tx& t = slots_[h];
    if (t.end > now &&
        // Conservative axis prefilter (see kAxisSlack): only skips entries
        // the exact test below could never accept, so the max is unchanged.
        std::abs(t.pos.x - pos.x) <= bound &&
        std::abs(t.pos.y - pos.y) <= bound &&
        // norm() <= range: the MAC's historical inclusive-sqrt comparison.
        (t.pos - pos).norm() <= range) {
      busy = std::max(busy, t.end);
    }
    return false;
  });
  return busy;
}

bool ChannelState::interference_at(core::Vec2 pos, core::SimTime start,
                                   core::SimTime end, double range,
                                   Handle self) const {
  VANET_ASSERT(range <= cell_size_);
  VANET_ASSERT_MSG(start >= horizon_,
                   "overlap query starts before the prune horizon");
  bool hit = false;
  const double bound = range * kAxisSlack;
  for_each_in_neighborhood(pos, [&](Handle h) {
    if (h == self) return false;
    const Tx& t = slots_[h];
    if (t.start < end && t.end > start &&
        std::abs(t.pos.x - pos.x) <= bound &&
        std::abs(t.pos.y - pos.y) <= bound && (t.pos - pos).norm() <= range) {
      hit = true;
      return true;
    }
    return false;
  });
  return hit;
}

void ChannelState::begin_overlap(core::SimTime start, core::SimTime end,
                                 Handle self, core::Vec2 center,
                                 double reach) {
  VANET_ASSERT_MSG(start >= horizon_,
                   "overlap query starts before the prune horizon");
  overlap_x_.clear();
  overlap_y_.clear();
  // Same conservative axis cutoff as overlap_near: an entry within `range`
  // of a receiver within `reach - range` of `center` is within `reach` of
  // `center`, and the slack keeps rounding from dropping it.
  const double bound = reach * kAxisSlack;
  // by_end_ holds exactly the un-pruned transmissions; heap order is
  // irrelevant because overlap_near is an existence test.
  for (const Handle h : by_end_) {
    if (h == self) continue;
    const Tx& t = slots_[h];
    if (t.start < end && t.end > start &&
        std::abs(t.pos.x - center.x) <= bound &&
        std::abs(t.pos.y - center.y) <= bound) {
      overlap_x_.push_back(t.pos.x);
      overlap_y_.push_back(t.pos.y);
    }
  }
}

bool ChannelState::overlap_near(core::Vec2 pos, double range) const {
  const double bound = range * kAxisSlack;
  const std::size_t n = overlap_x_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(overlap_x_[i] - pos.x) > bound) continue;
    if (std::abs(overlap_y_[i] - pos.y) > bound) continue;
    // The exact historical test, bit-for-bit: (t.pos - pos).norm() <= range.
    const core::Vec2 d = core::Vec2{overlap_x_[i], overlap_y_[i]} - pos;
    if (d.norm() <= range) return true;
  }
  return false;
}

void ChannelState::prune(core::SimTime horizon) {
  horizon_ = std::max(horizon_, horizon);
  while (!by_end_.empty() && slots_[by_end_.front()].end < horizon) {
    std::pop_heap(by_end_.begin(), by_end_.end(), EndsLater{slots_});
    const Handle h = by_end_.back();
    by_end_.pop_back();
    auto* bucket = cells_.find(slot_cell_[h]);
    VANET_ASSERT_MSG(bucket != nullptr, "pruned entry lost its cell");
    // Swap-erase: bucket order is immaterial (queries are max/existence).
    auto it = std::find(bucket->begin(), bucket->end(), h);
    *it = bucket->back();
    bucket->pop_back();
    free_slots_.push_back(h);
    --live_count_;
  }
}

}  // namespace vanet::net
