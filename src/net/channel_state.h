// Time-pruned, grid-bucketed index of transmissions on the shared channel.
//
// The MAC asks two questions per frame: "how long is the channel busy at this
// position?" (carrier sense) and "did any other transmission audible at this
// receiver overlap this frame in time?" (collision). Both only care about
// transmissions within the interference range, so entries are bucketed in a
// dense core::CellArray over the world's extent (cell size >= that range) and
// a query scans only the cells covering its range — the 3x3 neighborhood at
// the MAC's radius — instead of every active transmission in the network.
// Finished transmissions stay queryable until prune() passes their end time,
// because collision checks look back at frames that ended while the probed
// frame was still in flight.
//
// Three mechanical layers keep the queries cheap at 500+ vehicles:
//  - a cell is an index into one array (no hashing), and entries sit inline
//    in their cell as {handle, start, end, x, y}, so a scan reads one
//    contiguous run per cell instead of chasing a slot per candidate;
//  - the per-frame collision loop snapshots the transmissions overlapping the
//    frame and within reach of its sender once (begin_overlap, walking only
//    the cells covering that reach) into a dense coordinate array, and each
//    receiver answers with a linear scan (overlap_near) instead of re-walking
//    buckets and re-testing the time window per receiver;
//  - a min-heap on end time lets prune() touch only expired entries.
//
// Retention contract: prune(h) drops entries that ended before h, so a query
// window starting before the highest horizon passed so far could miss a
// collision. begin_overlap and interference_at abort on such a window; the
// caller (Network) picks its horizon so that every frame still in flight
// starts at or after it.
//
// Determinism: queries compute a max / an existence test over a set that is
// identical to the brute-force scan (distance cutoffs are inclusive, matching
// the MAC's historical `<=` semantics; the cells a query walks cover its whole
// range, out-of-box positions included, because the cell array clamps
// monotonically; and the snapshot is a superset of any receiver's candidates
// filtered by the same predicates), so the index changes no simulation
// outcome.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/cell_array.h"
#include "core/sim_time.h"
#include "core/vec2.h"
#include "net/packet.h"

namespace vanet::net {

class ChannelState {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kInvalidHandle =
      std::numeric_limits<Handle>::max();

  struct Tx {
    NodeId tx = 0;
    core::SimTime start{};
    core::SimTime end{};
    core::Vec2 pos;
  };

  /// `interference_range` is the largest radius point queries will use (the
  /// cell size); `extent` is the box transmitters are expected to stay in.
  explicit ChannelState(double interference_range,
                        const core::Box& extent = {});

  /// Register a transmission; the handle stays valid until prune() passes
  /// `end` (a node keeps the handle of its in-flight frame).
  Handle add(NodeId tx, core::SimTime start, core::SimTime end,
             core::Vec2 pos);

  const Tx& get(Handle h) const;

  /// Latest end time among transmissions still on the air (end > now) within
  /// `range` (inclusive) of `pos`; zero time when the channel is idle there.
  core::SimTime busy_until(core::Vec2 pos, core::SimTime now,
                           double range) const;

  /// True when any transmission other than `self` overlaps (start, end) in
  /// time and is within `range` (inclusive) of `pos`. The per-query form of
  /// overlap_near, which the tests check the snapshot against.
  bool interference_at(core::Vec2 pos, core::SimTime start, core::SimTime end,
                       double range, Handle self) const;

  /// Snapshot every transmission other than `self` overlapping (start, end)
  /// in time whose axis distance from `center` is at most `reach`.
  /// Subsequent overlap_near(pos, range) calls answer the same existence test
  /// as interference_at for that window at every `pos` within
  /// `reach - range` of `center` (triangle inequality) — one filter pass per
  /// frame instead of one per receiver. The snapshot is valid until the
  /// channel is mutated (add/prune).
  void begin_overlap(core::SimTime start, core::SimTime end, Handle self,
                     core::Vec2 center, double reach);

  /// True when any snapshotted transmission is within `range` (inclusive) of
  /// `pos`. Requires a preceding begin_overlap().
  bool overlap_near(core::Vec2 pos, double range) const;

  /// Drop every transmission that ended before `horizon`. Overlap queries
  /// must afterwards start at or after the highest horizon passed.
  void prune(core::SimTime horizon);

  std::size_t size() const { return live_count_; }

 private:
  /// A transmission as its cell stores it: everything a query filters on,
  /// inline.
  struct Entry {
    Handle handle = 0;
    core::SimTime start{};
    core::SimTime end{};
    double x = 0.0;
    double y = 0.0;
  };
  using Bucket = std::vector<Entry>;

  /// Invoke `fn(entry)` for every entry in the cells covering the square of
  /// half-side `bound` around `pos` — a superset of all entries within
  /// `bound` of it. Stops early when `fn` returns true. Every query goes
  /// through this one walk so they can never disagree on the candidate set.
  template <typename Fn>
  void for_each_near(core::Vec2 pos, double bound, Fn&& fn) const;

  std::vector<Tx> slots_;
  std::vector<std::uint32_t> slot_cell_;  ///< cell index of each slot
  std::vector<Handle> free_slots_;
  core::CellArray<Bucket> cells_;
  /// Min-heap on end time (lazily ordered: a plain heap via std::push_heap),
  /// so prune() pops only expired entries instead of rescanning everything.
  std::vector<Handle> by_end_;
  std::size_t live_count_ = 0;
  /// Highest horizon prune() was given (see the retention contract above).
  core::SimTime horizon_ =
      core::SimTime::micros(std::numeric_limits<std::int64_t>::min());
  /// begin_overlap snapshot: positions of the time-overlapping transmissions.
  std::vector<double> overlap_x_;
  std::vector<double> overlap_y_;
};

}  // namespace vanet::net
