// The per-node ETX machinery shared by the `etx` protocol and the flooding
// suppression mode: a LinkQualityTable fed by sequence-numbered hellos, a
// destination-sequenced distance vector piggybacked on the same hellos
// (net::HelloRouteEntry — no extra control frames), and Dijkstra over the
// resulting ETX-weighted neighbor topology.
//
// The graph Dijkstra runs over has two layers: measured edges self -> n for
// every live link (cost: the table's ETX estimate), and advertised edges
// n -> dst for every entry of n's last distance vector (cost: n's multi-hop
// ETX distance). Advert state is stored per advertising neighbor and dies
// with it (hello expiry), so a crashed neighbor can never leave dangling
// ETX edges behind — the same soft-state discipline as the tables.
//
// Storage is dense and allocation-free in steady state: every per-node
// table is a flat array indexed by NodeId, grown on demand as ids are heard
// of (a standalone agent needs no population size). An absent route is
// dist == kMaxEtx and an absent kill is `active == false`; presence is never
// inferred from a sequence number, since seq 0 is a real advertised value.
// Beacons walk the arrays in id order, so routes and kills go out sorted by
// destination. Dijkstra reuses one heap and pushes only nodes that hold
// adverts: settling any other node relaxes no edge, and the (cost, id)
// pairs pushed are unique (relaxation is strict), so the settle order — and
// hence every first_hop — is the one a heap of every node would give.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/hello.h"
#include "routing/linkquality/link_quality.h"

namespace vanet::routing {

class EtxAgent {
 public:
  EtxAgent(net::NodeId self, EtxConfig cfg);

  /// Convenience wiring: registers the beacon extension, frame observer and
  /// loss callback for `self` on the service. Protocols that need to wrap a
  /// hook (e.g. to sample metrics) register the callbacks themselves and
  /// forward to the fill_beacon / on_hello / on_neighbor_lost methods.
  void attach(net::HelloService& hello);

  /// Fill the piggyback fields of an outgoing beacon; returns the extra
  /// bytes they occupy on the air.
  std::size_t fill_beacon(net::HelloHeader& h);
  /// Process a received hello (estimator update + advert intake).
  void on_hello(const net::Packet& p, const net::HelloHeader& h);
  /// The hello layer expired `lost`: drop its link and its adverts.
  void on_neighbor_lost(net::NodeId lost);

  /// First hop of the cheapest ETX path to `dst`; nullopt when unreachable.
  std::optional<net::NodeId> next_hop(net::NodeId dst) const;
  /// Multi-hop ETX distance to `dst`; LinkQualityTable::kMaxEtx when
  /// unknown or unreachable (0 for self).
  double distance_to(net::NodeId dst) const;

  const LinkQualityTable& table() const { return table_; }
  /// True when any distance-vector advert from `from` is still held.
  bool has_adverts_from(net::NodeId from) const {
    return from < adverts_.size() && adverts_[from].held;
  }
  /// True while a route invalidation for `dst` is active (see Kill).
  bool has_kill_for(net::NodeId dst) const {
    return dst < kills_.size() && kills_[dst].active;
  }

 private:
  struct Route {
    double dist = LinkQualityTable::kMaxEtx;  ///< kMaxEtx: no route
    net::NodeId first_hop = 0;
  };
  /// Last distance vector heard from a live neighbor. `held` from its first
  /// hello until it is lost, even while the vector is empty.
  struct Advert {
    std::vector<net::HelloRouteEntry> routes;
    bool held = false;
  };
  /// Active route invalidations, DSDV-style: losing a neighbor originates a
  /// poisoned advert for it (dist = kMaxEtx) sequenced one past the
  /// destination's freshest known — odd, so only the destination itself can
  /// override it with a newer even beacon. Receivers adopt newer kills,
  /// drop the route and re-propagate; without this, two survivors'
  /// distance vectors would resurrect a dead destination's route off each
  /// other forever. Each kill rides `beacons_left` outgoing beacons (enough
  /// to disseminate) and then stays local as a filter, so beacons of nodes
  /// that outlive many neighbors don't grow without bound.
  struct Kill {
    std::uint32_t seq = 0;
    int beacons_left = 0;
    bool active = false;
  };

  /// Sizes every per-node array to hold ids up to `max_id`.
  void grow(net::NodeId max_id);
  void compute_routes() const;

  net::NodeId self_;
  LinkQualityTable table_;
  std::vector<Advert> adverts_;
  /// Freshest destination sequence seen per destination (from accepted
  /// adverts — every node stamps its own entry with its even own_seq_, so
  /// this is the destination's clock as it propagates outward). 0 until an
  /// advert for the destination is accepted: every reader treats "never
  /// heard" as 0, so no presence flag is kept. Entries are never forgotten,
  /// so a destination routed through an advert always has one here.
  std::vector<std::uint32_t> dst_seqs_;
  std::vector<Kill> kills_;
  std::uint32_t own_seq_ = 0;
  mutable std::vector<Route> routes_;
  /// Dijkstra's frontier, kept as a min-heap of (cost, id) across runs.
  mutable std::vector<std::pair<double, net::NodeId>> frontier_;
  mutable bool routes_dirty_ = true;
};

}  // namespace vanet::routing
