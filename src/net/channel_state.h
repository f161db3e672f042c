// Time-pruned, grid-bucketed index of transmissions on the shared channel.
//
// The MAC asks two questions per frame: "how long is the channel busy at this
// position?" (carrier sense) and "did any other transmission audible at this
// receiver overlap this frame in time?" (collision). Both only care about
// transmissions within the interference range, so entries are bucketed in a
// uniform grid with cell size >= that range and a query scans the 3x3 cell
// neighborhood instead of every active transmission in the network — the
// linear `active_` scans this replaces were the dominant cost of dense
// scenarios. Finished transmissions stay queryable until prune() passes their
// end time, because collision checks look back at frames that ended while the
// probed frame was still in flight.
//
// Two mechanical layers keep the queries cheap at 500+ vehicles:
//  - cells live in a small open-addressed table (power-of-two, linear probe)
//    instead of std::unordered_map — the 9 bucket lookups per query were the
//    second-hottest line of dense runs;
//  - the per-frame collision loop snapshots the transmissions overlapping the
//    frame and within reach of its sender once (begin_overlap) into a dense
//    coordinate array, and each receiver answers with a linear scan
//    (overlap_near) instead of re-walking buckets and re-testing the time
//    window per receiver.
//
// Retention contract: prune(h) drops entries that ended before h, so a query
// window starting before the highest horizon passed so far could miss a
// collision. begin_overlap and interference_at abort on such a window; the
// caller (Network) picks its horizon so that every frame still in flight or
// in a shard mailbox starts at or after it.
//
// Determinism: queries compute a max / an existence test over a set that is
// identical to the brute-force scan (distance cutoffs are inclusive, matching
// the MAC's historical `<=` semantics, and the snapshot is a superset of any
// receiver's 3x3 neighborhood filtered by the same predicates), so replacing
// the scans changes no simulation outcome.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

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

  /// `interference_range` is the largest radius queries will use (cell size).
  explicit ChannelState(double interference_range);

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
  /// time and is within `range` (inclusive) of `pos`.
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
  using CellKey = std::int64_t;

  /// Open-addressed cell-key -> bucket table (linear probe, power-of-two
  /// capacity). Cells are never erased — a pruned bucket just goes empty and
  /// its vector capacity is reused — so the table only ever grows to the
  /// number of distinct cells the deployment area touches.
  class CellTable {
   public:
    std::vector<Handle>* find(CellKey key);
    const std::vector<Handle>* find(CellKey key) const;
    std::vector<Handle>& get_or_insert(CellKey key);

   private:
    struct Cell {
      CellKey key = kEmptyKey;
      std::vector<Handle> items;
    };
    // grid_cell_key never produces INT64_MIN for simulated coordinates
    // (it would require a cell x-coordinate of -2^31).
    static constexpr CellKey kEmptyKey =
        std::numeric_limits<CellKey>::min();
    static std::size_t hash(CellKey key) {
      auto x = static_cast<std::uint64_t>(key);
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdull;
      x ^= x >> 33;
      return static_cast<std::size_t>(x);
    }
    void grow();

    std::vector<Cell> cells_;
    std::size_t mask_ = 0;
    std::size_t used_ = 0;
  };

  CellKey key_for(core::Vec2 pos) const;

  /// Invoke `fn(handle)` for every entry bucketed in the 3x3 cell
  /// neighborhood of `pos` — a superset of all entries within cell_size_ of
  /// it, which is why queries assert range <= cell_size_. Stops early when
  /// `fn` returns true. Both MAC point queries go through this one scan so
  /// they can never disagree on the candidate set.
  template <typename Fn>
  void for_each_in_neighborhood(core::Vec2 pos, Fn&& fn) const;

  double cell_size_;
  std::vector<Tx> slots_;
  std::vector<CellKey> slot_cell_;      ///< bucket of each slot
  std::vector<Handle> free_slots_;
  CellTable cells_;
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
