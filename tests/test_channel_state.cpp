// ChannelState: the cell-bucketed interference index behind carrier sense
// and collision checks. Property-tested against the brute-force scans it
// replaced in Network.
#include "net/channel_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/rng.h"

namespace vanet::net {
namespace {

using core::SimTime;
using core::Vec2;

TEST(ChannelState, BusyUntilSeesOnlyAudibleLiveTransmissions) {
  ChannelState cs{100.0};
  // In range, on the air until t=5.
  cs.add(0, SimTime::seconds(1.0), SimTime::seconds(5.0), {0.0, 0.0});
  // In range but already finished at the probe time.
  cs.add(1, SimTime::seconds(0.0), SimTime::seconds(2.0), {10.0, 0.0});
  // Out of range.
  cs.add(2, SimTime::seconds(1.0), SimTime::seconds(9.0), {500.0, 0.0});

  const SimTime busy =
      cs.busy_until({50.0, 0.0}, SimTime::seconds(3.0), 100.0);
  EXPECT_EQ(busy, SimTime::seconds(5.0));
  // Idle once the frame ends.
  EXPECT_EQ(cs.busy_until({50.0, 0.0}, SimTime::seconds(5.0), 100.0),
            SimTime::zero());
}

TEST(ChannelState, BusyUntilRangeIsInclusive) {
  ChannelState cs{100.0};
  cs.add(0, SimTime::zero(), SimTime::seconds(1.0), {100.0, 0.0});
  // Exactly at the sense range: audible (<=), matching the MAC's semantics.
  EXPECT_EQ(cs.busy_until({0.0, 0.0}, SimTime::zero(), 100.0),
            SimTime::seconds(1.0));
}

TEST(ChannelState, InterferenceExcludesSelfAndNonOverlapping) {
  ChannelState cs{100.0};
  const auto self =
      cs.add(0, SimTime::seconds(2.0), SimTime::seconds(3.0), {0.0, 0.0});
  // Only our own frame on the air: no interference.
  EXPECT_FALSE(cs.interference_at({10.0, 0.0}, SimTime::seconds(2.0),
                                  SimTime::seconds(3.0), 100.0, self));
  // A frame that ended before ours began does not interfere...
  cs.add(1, SimTime::seconds(0.0), SimTime::seconds(2.0), {20.0, 0.0});
  EXPECT_FALSE(cs.interference_at({10.0, 0.0}, SimTime::seconds(2.0),
                                  SimTime::seconds(3.0), 100.0, self));
  // ...but an overlapping one audible at the receiver does.
  cs.add(2, SimTime::seconds(2.5), SimTime::seconds(2.6), {30.0, 0.0});
  EXPECT_TRUE(cs.interference_at({10.0, 0.0}, SimTime::seconds(2.0),
                                 SimTime::seconds(3.0), 100.0, self));
  // Out of interference range: inaudible.
  EXPECT_FALSE(cs.interference_at({500.0, 0.0}, SimTime::seconds(2.0),
                                  SimTime::seconds(3.0), 100.0, self));
}

TEST(ChannelState, PruneDropsOnlyEntriesEndedBeforeHorizon) {
  ChannelState cs{100.0};
  cs.add(0, SimTime::zero(), SimTime::seconds(1.0), {0.0, 0.0});
  cs.add(1, SimTime::zero(), SimTime::seconds(2.0), {0.0, 0.0});
  cs.add(2, SimTime::zero(), SimTime::seconds(3.0), {0.0, 0.0});
  EXPECT_EQ(cs.size(), 3u);
  cs.prune(SimTime::seconds(2.0));  // drops end=1 only (end < horizon)
  EXPECT_EQ(cs.size(), 2u);
  // The survivors still answer overlap queries starting at the horizon.
  EXPECT_TRUE(cs.interference_at({0.0, 0.0}, SimTime::seconds(2.0),
                                 SimTime::seconds(2.5), 100.0,
                                 ChannelState::kInvalidHandle));
  cs.prune(SimTime::seconds(10.0));
  EXPECT_EQ(cs.size(), 0u);
}

TEST(ChannelState, HandlesStayValidAcrossSlotReuse) {
  ChannelState cs{100.0};
  const auto a = cs.add(7, SimTime::zero(), SimTime::seconds(1.0), {1.0, 2.0});
  cs.prune(SimTime::seconds(5.0));
  // The freed slot is reused; the new handle reads back the new record.
  const auto b =
      cs.add(9, SimTime::seconds(6.0), SimTime::seconds(7.0), {3.0, 4.0});
  EXPECT_EQ(a, b);  // slot reuse is expected...
  EXPECT_EQ(cs.get(b).tx, 9u);
  EXPECT_EQ(cs.get(b).pos, (Vec2{3.0, 4.0}));
}

/// Extents the channel index is sized to in the property tests: none (one
/// cell), a box holding a small central patch of the soup (most entries and
/// probes clamp into border cells), and the whole soup.
std::vector<core::Box> test_extents() {
  return {core::Box{},
          core::Box{{-300.0, -200.0}, {250.0, 350.0}},
          core::Box{{-1000.0, -1000.0}, {1000.0, 1000.0}}};
}

/// A position of the random soup: mostly in [-1000, 1000]^2, one in ten far
/// outside it (negative coordinates included).
Vec2 soup_pos(core::Rng& rng) {
  const double lim = rng.uniform(0.0, 1.0) < 0.1 ? 6000.0 : 1000.0;
  return {rng.uniform(-lim, lim), rng.uniform(-lim, lim)};
}

// Property: busy_until and interference_at match brute-force scans over a
// random transmission soup, across positions near cell boundaries and
// outside the index's extent.
TEST(ChannelState, MatchesBruteForce) {
  const double range = 150.0;
  for (const core::Box& extent : test_extents()) {
    ChannelState cs{range, extent};
    core::Rng rng{42};
    struct Entry {
      ChannelState::Handle h;
      NodeId tx;
      SimTime start, end;
      Vec2 pos;
    };
    std::vector<Entry> entries;
    for (int i = 0; i < 200; ++i) {
      const Vec2 pos = soup_pos(rng);
      const SimTime start = SimTime::millis(rng.uniform_int(0, 1000));
      const SimTime end = start + SimTime::millis(rng.uniform_int(1, 50));
      const auto h = cs.add(static_cast<NodeId>(i), start, end, pos);
      entries.push_back({h, static_cast<NodeId>(i), start, end, pos});
    }
    for (int probe = 0; probe < 200; ++probe) {
      // Every other probe sits next to an entry, so far-out hits occur too.
      const Vec2 near{rng.uniform(-range, range), rng.uniform(-range, range)};
      const Vec2 pos =
          probe % 2 == 0
              ? soup_pos(rng)
              : entries[static_cast<std::size_t>(probe % 200)].pos + near;
      const SimTime now = SimTime::millis(rng.uniform_int(0, 1050));

      SimTime expect_busy = SimTime::zero();
      for (const Entry& e : entries) {
        if (e.end <= now) continue;
        if ((e.pos - pos).norm() <= range) {
          expect_busy = std::max(expect_busy, e.end);
        }
      }
      EXPECT_EQ(cs.busy_until(pos, now, range), expect_busy);

      const SimTime qstart = now;
      const SimTime qend = now + SimTime::millis(20);
      const auto self = entries[static_cast<std::size_t>(probe % 200)].h;
      bool expect_hit = false;
      for (const Entry& e : entries) {
        if (e.h == self) continue;
        if (e.start < qend && e.end > qstart && (e.pos - pos).norm() <= range) {
          expect_hit = true;
          break;
        }
      }
      EXPECT_EQ(cs.interference_at(pos, qstart, qend, range, self),
                expect_hit);
    }
  }
}

TEST(ChannelState, OverlapSnapshotMatchesInterferenceAt) {
  // begin_overlap/overlap_near is the batched per-frame form of
  // interference_at used by the collision loop; the two must agree at every
  // receiver within max_range of the snapshot's center, including after
  // prunes recycle slots and for centers outside the index's extent.
  const double range = 150.0;
  for (const core::Box& extent : test_extents()) {
    ChannelState cs{range, extent};
    core::Rng rng{7};
    std::vector<ChannelState::Handle> handles;
    std::vector<Vec2> positions;
    for (int i = 0; i < 200; ++i) {
      const Vec2 pos = soup_pos(rng);
      const SimTime start = SimTime::millis(rng.uniform_int(0, 1000));
      const SimTime end = start + SimTime::millis(rng.uniform_int(1, 50));
      handles.push_back(cs.add(static_cast<NodeId>(i), start, end, pos));
      positions.push_back(pos);
    }
    int hits = 0;
    int probes = 0;
    for (int frame = 0; frame < 200; ++frame) {
      if (frame == 100) {
        // Drop roughly the first half of the timeline, then refill a little.
        cs.prune(SimTime::millis(500));
        for (int i = 0; i < 40; ++i) {
          const Vec2 pos = soup_pos(rng);
          const SimTime start = SimTime::millis(rng.uniform_int(500, 1000));
          handles.push_back(cs.add(static_cast<NodeId>(200 + i), start,
                                   start + SimTime::millis(20), pos));
          positions.push_back(pos);
        }
      }
      const SimTime qstart = SimTime::millis(rng.uniform_int(500, 1000));
      const SimTime qend = qstart + SimTime::millis(rng.uniform_int(1, 200));
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(handles.size()) - 1));
      const auto self = handles[pick];
      // Mostly the soup's core; every fourth frame is centred on its own
      // transmitter, wherever that is.
      const Vec2 center =
          frame % 4 == 0 ? positions[pick]
                         : Vec2{rng.uniform(-1100.0, 1100.0),
                                rng.uniform(-1100.0, 1100.0)};
      // The receiver radius never exceeds the interference range.
      const double max_range = rng.uniform(1.0, range);
      cs.begin_overlap(qstart, qend, self, center, max_range + range);
      for (int p = 0; p < 40; ++p) {
        // Half uniform in the disk, half on its rim, where the snapshot's
        // reach cutoff is tight.
        const double angle = rng.uniform(0.0, 6.283185307179586);
        const double r =
            max_range * (p % 2 == 0 ? 1.0 : std::sqrt(rng.uniform(0.0, 1.0)));
        const Vec2 pos =
            center + Vec2{r * std::cos(angle), r * std::sin(angle)};
        if ((pos - center).norm() > max_range) continue;
        const bool hit = cs.interference_at(pos, qstart, qend, range, self);
        EXPECT_EQ(cs.overlap_near(pos, range), hit);
        hits += hit ? 1 : 0;
        ++probes;
      }
    }
    // Both answers are common, so the comparison has teeth.
    EXPECT_GT(hits, probes / 5);
    EXPECT_LT(hits, probes - probes / 5);
  }
}

TEST(ChannelState, OverlapSnapshotKeepsInterferersAtFullReach) {
  // Receiver on the rim of the sender's 100 m reception disk, interferer
  // exactly 150 m beyond it: 250 m = max_range + range from the sender.
  ChannelState cs{150.0};
  cs.add(1, SimTime::zero(), SimTime::seconds(1.0), {250.0, 0.0});
  cs.begin_overlap(SimTime::zero(), SimTime::seconds(1.0),
                   ChannelState::kInvalidHandle, {0.0, 0.0}, 250.0);
  EXPECT_TRUE(cs.overlap_near({100.0, 0.0}, 150.0));
  EXPECT_FALSE(cs.overlap_near({99.0, 0.0}, 150.0));
}

// Property: pruning at `now - longest frame` is exact. A frame stream runs
// through two indexes, one pruned the way Network prunes and one never
// pruned; carrier sense at every frame start and the collision answer at
// every frame end must agree. Rare long frames make the horizon jump.
TEST(ChannelState, ExactPruneHorizonMatchesUnprunedIndex) {
  const double range = 200.0;
  const double max_range = 150.0;
  const core::Box area{{0.0, 0.0}, {1000.0, 1000.0}};
  ChannelState pruned{range, area};
  ChannelState full{range, area};
  core::Rng rng{2024};
  struct Frame {
    ChannelState::Handle hp, hf;
    SimTime start, end;
    Vec2 pos;
  };
  std::vector<Frame> frames;
  // In-flight frames as (end time, index), kept sorted by end time.
  std::vector<std::pair<SimTime, std::size_t>> pending;
  SimTime now = SimTime::zero();
  SimTime longest = SimTime::zero();
  std::size_t collisions = 0;
  std::size_t checks = 0;
  auto finish_due = [&](SimTime until) {
    while (!pending.empty() && pending.front().first <= until) {
      const Frame& f = frames[pending.front().second];
      pending.erase(pending.begin());
      const double reach = max_range + range;
      pruned.begin_overlap(f.start, f.end, f.hp, f.pos, reach);
      full.begin_overlap(f.start, f.end, f.hf, f.pos, reach);
      for (int p = 0; p < 20; ++p) {
        const Vec2 rx = f.pos + Vec2{rng.uniform(-100.0, 100.0),
                                     rng.uniform(-100.0, 100.0)};
        const bool hit = full.overlap_near(rx, range);
        EXPECT_EQ(pruned.overlap_near(rx, range), hit);
        EXPECT_EQ(pruned.interference_at(rx, f.start, f.end, range, f.hp),
                  hit);
        collisions += hit ? 1 : 0;
        ++checks;
      }
    }
  };
  for (int i = 0; i < 10000; ++i) {
    now = now + SimTime::micros(rng.uniform_int(1, 400));
    finish_due(now);
    pruned.prune(now - longest);
    const Vec2 pos{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
    EXPECT_EQ(pruned.busy_until(pos, now, range),
              full.busy_until(pos, now, range));
    const SimTime duration =
        rng.uniform(0.0, 1.0) < 0.01
            ? SimTime::millis(rng.uniform_int(1, 60))
            : SimTime::micros(rng.uniform_int(50, 740));
    longest = std::max(longest, duration);
    const SimTime end = now + duration;
    frames.push_back({pruned.add(static_cast<NodeId>(i), now, end, pos),
                      full.add(static_cast<NodeId>(i), now, end, pos), now,
                      end, pos});
    const auto at = std::upper_bound(
        pending.begin(), pending.end(), std::make_pair(end, frames.size() - 1));
    pending.insert(at, {end, frames.size() - 1});
  }
  finish_due(SimTime::max());
  // The pruned index really did forget most of the stream, and the
  // comparison saw both outcomes.
  EXPECT_LT(pruned.size(), full.size() / 4);
  EXPECT_GT(collisions, checks / 20);
  EXPECT_LT(collisions, checks);
}

TEST(ChannelStateDeathTest, QueryBeforePruneHorizonAborts) {
  ChannelState cs{100.0};
  cs.add(0, SimTime::zero(), SimTime::seconds(1.0), {0.0, 0.0});
  cs.prune(SimTime::seconds(2.0));
  // A window starting before the horizon could have lost a collision.
  EXPECT_DEATH(cs.begin_overlap(SimTime::seconds(1.5), SimTime::seconds(2.5),
                                ChannelState::kInvalidHandle, {0.0, 0.0},
                                200.0),
               "prune horizon");
  EXPECT_DEATH((void)cs.interference_at({0.0, 0.0}, SimTime::seconds(1.5),
                                        SimTime::seconds(2.5), 100.0,
                                        ChannelState::kInvalidHandle),
               "prune horizon");
  // A lower horizon later does not reopen the forgotten window.
  cs.prune(SimTime::seconds(1.0));
  EXPECT_DEATH(cs.begin_overlap(SimTime::seconds(1.5), SimTime::seconds(2.5),
                                ChannelState::kInvalidHandle, {0.0, 0.0},
                                200.0),
               "prune horizon");
}

}  // namespace
}  // namespace vanet::net
