// Periodic hello beacons and per-node neighbor tables.
//
// Mobility-, geographic- and probability-based protocols all require
// "neighboring awareness" (Sec. IV-A): each node periodically broadcasts its
// position / velocity / acceleration, and peers keep a soft-state table that
// expires silently-departed neighbors. The beacons ride the real MAC, so
// their cost shows up as the control overhead Table I charges these
// categories with — and they collide like any other frame.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <ranges>
#include <span>
#include <vector>

#include "core/rng.h"
#include "core/sim_time.h"
#include "core/vec2.h"
#include "net/network.h"
#include "net/packet.h"

namespace vanet::net {

struct HelloConfig {
  core::SimTime interval = core::SimTime::seconds(1.0);
  double jitter_fraction = 0.1;   ///< uniform +/- jitter on each beacon
  core::SimTime expiry = core::SimTime::seconds(3.0);
  std::size_t beacon_bytes = 32;  ///< id + position + velocity + accel
};

/// Link-quality piggyback: "I receive `neighbor`'s beacons with `ratio`".
/// The named neighbor reads its own entry back as its forward delivery
/// ratio (the other direction of the link it cannot observe directly).
struct HelloLinkEntry {
  NodeId neighbor = 0;
  double ratio = 0.0;
};

/// Distance-vector piggyback: "my multi-hop ETX distance to `dst` is
/// `dist`, destination-sequenced with `seq`" (see routing/linkquality/).
/// Field order packs the entry into 16 B in memory; its on-air cost is
/// accounted separately by the ETX agent.
struct HelloRouteEntry {
  NodeId dst = 0;
  std::uint32_t seq = 0;
  double dist = 0.0;
};
static_assert(sizeof(HelloRouteEntry) == 16);

struct HelloHeader final : Header {
  static constexpr HeaderTag kTag = HeaderTag::kHello;
  HelloHeader() : Header{kTag} {}
  core::Vec2 pos;
  core::Vec2 vel;
  core::Vec2 acc;
  bool rsu = false;
  /// Per-sender beacon sequence number, starting at 0 and incrementing by
  /// one per beacon — receivers can count exactly how many beacons they
  /// missed (the windowed delivery-ratio estimator's input).
  std::uint32_t seq = 0;
  /// Piggybacked link-quality payload, filled by a registered beacon
  /// extension (empty — and free — for every protocol that registers none).
  std::vector<HelloLinkEntry> links;
  std::vector<HelloRouteEntry> routes;
};

struct NeighborInfo {
  NodeId id = 0;
  core::Vec2 pos;
  core::Vec2 vel;
  core::Vec2 acc;
  bool rsu = false;
  core::SimTime last_heard{};

  /// Dead-reckoned position at `now` from the last beacon.
  core::Vec2 predicted_pos(core::SimTime now) const {
    return pos + vel * (now - last_heard).as_seconds();
  }
};

/// Every decoded hello frame, stored once: one record per frame, shared by
/// all the neighbor tables that decoded it and reference-counted by their
/// rows (a scenario is single-threaded, so the count is a plain integer).
/// A record is freed when the last row that names it is replaced or expires,
/// and its slot is reused by a later frame. Records live in fixed-size
/// chunks, so a record's address never moves while it is held.
class BeaconStore {
 public:
  using Index = std::uint32_t;

  /// The record of frame `uid` from `info.id`, decoded at `info.last_heard`:
  /// the record the previous call made when that call named the same frame
  /// (one frame reaches all its receivers in one event), else a new record
  /// holding `info`. A new record is held by nothing until a table takes it.
  Index intern(std::uint64_t uid, const NeighborInfo& info);

  const NeighborInfo& operator[](Index i) const {
    return chunks_[i / kChunk][i % kChunk];
  }
  void retain(Index i) { ++refs_[i]; }
  void release(Index i);

  /// Records in use: held by some row, or just interned.
  std::size_t live() const { return refs_.size() - free_.size(); }

 private:
  static constexpr Index kChunk = 1024;
  static constexpr Index kNone = ~Index{0};

  std::vector<std::unique_ptr<NeighborInfo[]>> chunks_;
  std::vector<std::uint32_t> refs_;  ///< per slot; 0 = free
  std::vector<Index> free_;          ///< freed slots, reused first
  /// The frame the last intern call named, while its record is live.
  Index last_ = kNone;
  std::uint64_t last_uid_ = 0;
};

/// One node's row for a neighbor: its id, its latest decoded beacon's record
/// and that beacon's reception time (a copy, so a sweep reads no record).
struct NeighborRow {
  NodeId id = 0;
  BeaconStore::Index record = 0;
  core::SimTime last_heard{};
};
static_assert(sizeof(NeighborRow) == 16);

/// One node's neighbors as id-sorted 16-byte rows naming records in a
/// BeaconStore: binary-search lookups and a deterministic id-order view.
/// A `NeighborInfo` read through `snapshot()` or `find()` is the shared
/// record in the store. Records never move, and a row holds its record until
/// the node's next hello intake or sweep (each its own event), so the
/// reference is valid until then; routing handlers keep no `NeighborInfo*`
/// past their own call. Move-only: a row holds a reference to its record.
class NeighborTable {
 public:
  explicit NeighborTable(BeaconStore& store) : store_{&store} {}
  NeighborTable(NeighborTable&&) = default;

  /// Points the row of the record's sender at `record` (id and reception
  /// time are read from it), releasing the record it named before.
  void update(BeaconStore::Index record);
  const NeighborInfo* find(NodeId id) const;
  std::size_t size() const { return rows_.size(); }

  /// The neighbors in id order: a random-access view of the rows' records
  /// (see the class comment for how long they stay valid).
  auto snapshot() const {
    return std::span<const NeighborRow>{rows_} |
           std::views::transform(
               [store = store_](const NeighborRow& row) -> const NeighborInfo& {
                 return (*store)[row.record];
               });
  }

  /// Remove entries older than `expiry`; returns the expired ids, sorted.
  std::vector<NodeId> expire(core::SimTime now, core::SimTime expiry);

 private:
  BeaconStore* store_;
  std::vector<NeighborRow> rows_;  ///< sorted by id, ids unique
};

/// One service instance manages beacons + tables for every node in the
/// network. Frames are tagged PacketKind::kHello; the routing layer forwards
/// them to `on_frame`.
class HelloService {
 public:
  /// Fills the outgoing header's piggyback fields (links/routes) right
  /// before a beacon is sent; returns the extra payload bytes the piggyback
  /// adds on the air (0 keeps the beacon at `beacon_bytes`).
  using BeaconExtension = std::function<std::size_t(HelloHeader&)>;
  /// Sees every decoded hello frame at the registered node, after the
  /// neighbor table was updated (link-quality estimators tap in here). The
  /// frame's header is a HelloHeader.
  using FrameObserver = std::function<void(const Packet&)>;

  HelloService(Network& net, core::Rng& rng, HelloConfig cfg = {});

  /// Start beaconing for `ids` (a scenario passes every node). Tables for
  /// nodes not started here still build up lazily as their frames arrive
  /// via on_frame.
  void start(const std::vector<NodeId>& ids);

  const NeighborTable& table(NodeId id) const;

  /// Called by the routing layer when a hello frame arrives at `self`.
  /// Every receiver of one frame shares its record (see BeaconStore).
  void on_frame(NodeId self, const Packet& p);

  /// The decoded beacons the tables read.
  const BeaconStore& records() const { return store_; }

  /// Observer for neighbor-expiry events at node `id` (route maintenance).
  void set_loss_callback(NodeId id, std::function<void(NodeId lost)> fn);

  /// One extension / observer slot per node (the node's protocol instance).
  void set_beacon_extension(NodeId id, BeaconExtension fn);
  void set_frame_observer(NodeId id, FrameObserver fn);

 private:
  /// Fires one beacon; returns the (jittered) absolute time of the next one.
  core::SimTime send_beacon(NodeId id);
  void sweep(NodeId id);

  /// Everything the service keeps for one node, indexed by NodeId.
  struct PerNode {
    explicit PerNode(BeaconStore& store) : table{store} {}
    NeighborTable table;
    bool has_table = false;  ///< started here, or heard a hello frame
    std::uint32_t beacon_seq = 0;
    std::function<void(NodeId)> on_loss;
    BeaconExtension extension;
    FrameObserver observer;
  };
  /// The slot of `id`; grows the array (frames can reach unstarted nodes).
  PerNode& node(NodeId id);

  Network& net_;
  core::Rng& rng_;
  HelloConfig cfg_;
  BeaconStore store_;
  std::vector<PerNode> nodes_;
  bool started_ = false;
};

}  // namespace vanet::net
