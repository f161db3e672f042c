// Per-link delivery-ratio estimation from sequence-numbered hellos (ETX).
//
// De Couto's expected transmission count: a link's cost is ETX = 1/(df*dr),
// where dr is the fraction of the neighbor's beacons this node received over
// a sliding window (directly observable from the beacon sequence numbers)
// and df is the fraction of this node's beacons the neighbor received —
// unobservable locally, so neighbors piggyback their measured ratios on
// their own beacons (net::HelloLinkEntry) and each node reads its entry
// back. Entries age out with the hello neighbor state: the estimator is
// soft state, fed and pruned by the same beacons that feed the tables.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"

namespace vanet::routing {

/// `etx.*` config keys.
struct EtxConfig {
  /// Delivery-ratio window, in beacon sequence numbers (1..64: the window
  /// is a 64-bit receipt mask).
  int window = 16;
  /// EWMA weight applied to each fresh windowed ratio sample: 1.0 (default)
  /// keeps the pure windowed estimate (so exactly k of the last n beacons
  /// received means ratio k/n, exactly); smaller values smooth across
  /// windows at the cost of slower reaction to link changes.
  double hello_weight = 1.0;
};

/// Rebroadcast-coordination mode of the flooding protocols
/// (`flood.suppression`): kEtx defers each re-flood proportionally to the
/// node's ETX distance to the packet's origin and cancels it when a copy is
/// overheard first (a node that fired earlier was better placed, by the
/// same delay rule).
enum class FloodSuppression { kNone, kEtx };

/// The per-node estimator: one entry per live neighbor link.
class LinkQualityTable {
 public:
  explicit LinkQualityTable(EtxConfig cfg = {});

  /// A beacon from `from` carrying sequence number `seq` was received.
  void on_hello(net::NodeId from, std::uint32_t seq);
  /// `from` piggybacked the ratio at which it receives this node's beacons.
  void on_report(net::NodeId from, double ratio);
  /// The hello layer expired `neighbor`; drop the link with it.
  void erase(net::NodeId neighbor);

  /// Windowed reverse delivery ratio dr: received beacons among the last
  /// min(window, seq+1) the neighbor sent (sender sequences start at 0, so
  /// the denominator ramps with the true send count until the window
  /// fills). 0 for unknown neighbors.
  double reverse_ratio(net::NodeId neighbor) const;
  /// Forward delivery ratio df from the neighbor's last report; 1.0 until
  /// the first report arrives (optimistic bootstrap — a fresh link has at
  /// most one beacon of history in either direction).
  double forward_ratio(net::NodeId neighbor) const;
  /// ETX = 1/(df*dr), clamped to kMaxEtx; kMaxEtx for unknown neighbors.
  double etx(net::NodeId neighbor) const;

  /// Long-run ratio: every beacon received over every beacon the neighbor
  /// sent since first contact (last_seq - first_seq + 1). The unwindowed
  /// estimate the convergence property test checks against the analytic
  /// receipt probability.
  double long_run_ratio(net::NodeId neighbor) const;

  bool contains(net::NodeId neighbor) const {
    return find(neighbor) != nullptr;
  }
  std::size_t size() const { return ids_.size(); }
  /// Live link neighbors, sorted by id (deterministic iteration). A view of
  /// the table's own storage: valid until the next on_hello/on_report/erase.
  const std::vector<net::NodeId>& neighbors() const { return ids_; }

  const EtxConfig& config() const { return cfg_; }

  /// Cost ceiling: links (and routes) at or beyond this are unusable.
  static constexpr double kMaxEtx = 128.0;

 private:
  struct Link {
    std::uint64_t window_bits = 0;  ///< bit i: beacon (last_seq - i) received
    std::uint32_t first_seq = 0;    ///< first beacon heard (ratio baseline)
    std::uint32_t last_seq = 0;
    std::uint64_t heard = 0;        ///< received count since first contact
    double smoothed = 1.0;          ///< EWMA of the windowed ratio
    double reported = 1.0;          ///< neighbor's last forward-ratio report
    bool has_report = false;
  };

  double windowed_ratio(const Link& link) const;
  /// The link with `neighbor`, or nullptr when there is none.
  const Link* find(net::NodeId neighbor) const;
  /// The link with `neighbor`, inserted in id order when there is none.
  Link& find_or_insert(net::NodeId neighbor);

  /// Live links in ascending id order: ids_[i] names links_[i]. A node has
  /// tens of neighbors, so binary search beats hashing and iteration needs
  /// neither a copy nor a sort.
  std::vector<net::NodeId> ids_;
  std::vector<Link> links_;
  EtxConfig cfg_;
};

}  // namespace vanet::routing
