#include "net/channel_state.h"

#include <algorithm>
#include <cmath>

#include "core/assert.h"

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

ChannelState::ChannelState(double interference_range,
                           const core::Box& extent)
    : cells_{interference_range, extent} {}

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
  const auto cell = static_cast<std::uint32_t>(cells_.index(pos));
  slot_cell_[h] = cell;
  cells_[cell].push_back(Entry{h, start, end, pos.x, pos.y});
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
void ChannelState::for_each_near(core::Vec2 pos, double bound, Fn&& fn) const {
  const core::Vec2 half{bound, bound};
  cells_.for_each(pos - half, pos + half, [&](const Bucket& bucket) {
    for (const Entry& e : bucket) {
      if (fn(e)) return true;
    }
    return false;
  });
}

core::SimTime ChannelState::busy_until(core::Vec2 pos, core::SimTime now,
                                       double range) const {
  core::SimTime busy = core::SimTime::zero();
  const double bound = range * kAxisSlack;
  for_each_near(pos, bound, [&](const Entry& e) {
    if (e.end > now &&
        // Conservative axis prefilter (see kAxisSlack): only skips entries
        // the exact test below could never accept, so the max is unchanged.
        std::abs(e.x - pos.x) <= bound && std::abs(e.y - pos.y) <= bound &&
        // norm() <= range: the MAC's historical inclusive-sqrt comparison.
        (core::Vec2{e.x, e.y} - pos).norm() <= range) {
      busy = std::max(busy, e.end);
    }
    return false;
  });
  return busy;
}

bool ChannelState::interference_at(core::Vec2 pos, core::SimTime start,
                                   core::SimTime end, double range,
                                   Handle self) const {
  VANET_ASSERT_MSG(start >= horizon_,
                   "overlap query starts before the prune horizon");
  bool hit = false;
  const double bound = range * kAxisSlack;
  for_each_near(pos, bound, [&](const Entry& e) {
    hit = e.handle != self && e.start < end && e.end > start &&
          std::abs(e.x - pos.x) <= bound && std::abs(e.y - pos.y) <= bound &&
          (core::Vec2{e.x, e.y} - pos).norm() <= range;
    return hit;
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
  // `center`, and the slack keeps rounding from dropping it. Snapshot order
  // is irrelevant because overlap_near is an existence test.
  const double bound = reach * kAxisSlack;
  for_each_near(center, bound, [&](const Entry& e) {
    if (e.handle != self && e.start < end && e.end > start &&
        std::abs(e.x - center.x) <= bound &&
        std::abs(e.y - center.y) <= bound) {
      overlap_x_.push_back(e.x);
      overlap_y_.push_back(e.y);
    }
    return false;
  });
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
    Bucket& bucket = cells_[slot_cell_[h]];
    // Swap-erase: bucket order is immaterial (queries are max/existence).
    auto it = std::find_if(bucket.begin(), bucket.end(),
                           [h](const Entry& e) { return e.handle == h; });
    VANET_ASSERT_MSG(it != bucket.end(), "pruned entry lost its cell");
    *it = bucket.back();
    bucket.pop_back();
    free_slots_.push_back(h);
    --live_count_;
  }
}

}  // namespace vanet::net
