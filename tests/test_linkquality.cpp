// Link-quality family (routing/linkquality/): estimator unit tests with
// exact window arithmetic, adversarial cases (asymmetric links, neighbor
// churn, re-admission), the EtxAgent route layer and its differential test
// against an ordered-map reference agent, the Nakagami convergence
// property test against net/fading's closed-form receipt probability, and
// the determinism contracts (jobs=1 == jobs=4 byte-identity for an etx
// sweep, suppression accounting in the ScenarioReport).
#include "routing/linkquality/link_quality.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <queue>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/stats.h"
#include "core/rng.h"
#include "net/fading.h"
#include "net/hello.h"
#include "routing/linkquality/etx.h"
#include "routing/linkquality/etx_agent.h"
#include "sim/experiment.h"
#include "sim/report_sink.h"
#include "sim/scenario.h"
#include "util/constant_velocity.h"

namespace vanet::routing {
namespace {

/// Whether `t` holds a link entry for `neighbor`.
bool has_link(const LinkQualityTable& t, net::NodeId neighbor) {
  return std::binary_search(t.neighbors().begin(), t.neighbors().end(),
                            neighbor);
}

// ------------------------------------------------------ estimator window ---

TEST(LinkQuality, ExactlyKOfNHellosGivesRatioKOverN) {
  // The window-boundary contract: with the sender heard from its seq 0, the
  // denominator is exactly min(window, beacons sent), so k received of n
  // sent is k/n with no off-by-one. 4 of 5:
  LinkQualityTable t;
  for (std::uint32_t seq : {0u, 1u, 3u, 4u}) t.on_hello(7, seq);
  EXPECT_DOUBLE_EQ(t.reverse_ratio(7), 4.0 / 5.0);
  // Hearing the missing beacon late (out of order) completes the window.
  t.on_hello(7, 2);
  EXPECT_DOUBLE_EQ(t.reverse_ratio(7), 1.0);
}

TEST(LinkQuality, DenominatorRampsThenClampsAtWindow) {
  static_assert(LinkQualityTable::kWindow == 16);
  LinkQualityTable t;
  t.on_hello(3, 0);
  EXPECT_DOUBLE_EQ(t.reverse_ratio(3), 1.0);  // 1 of 1
  t.on_hello(3, 2);
  EXPECT_DOUBLE_EQ(t.reverse_ratio(3), 2.0 / 3.0);  // missed seq 1
  // Beyond the window the denominator stays n=16: after seq 19 the window
  // covers 4..19 and only seq 19 was heard.
  t.on_hello(3, 19);
  EXPECT_DOUBLE_EQ(t.reverse_ratio(3), 1.0 / 16.0);
}

TEST(LinkQuality, GapLongerThanTheMaskDropsAllHistory) {
  LinkQualityTable t;
  for (std::uint32_t seq = 0; seq < 16; ++seq) t.on_hello(1, seq);
  EXPECT_DOUBLE_EQ(t.reverse_ratio(1), 1.0);
  t.on_hello(1, 200);  // 184-beacon silence: only the newest bit survives
  EXPECT_DOUBLE_EQ(t.reverse_ratio(1), 1.0 / 16.0);
}

TEST(LinkQuality, ReAdmissionRebasesTheRatioBaseline) {
  // Erase (hello expiry / unicast failure) then re-admission mid-stream:
  // beacons sent while the entry did not exist are not held against the
  // link — the fresh entry starts from a clean baseline at the new seq.
  LinkQualityTable t;
  for (std::uint32_t seq : {0u, 1u, 2u, 3u}) t.on_hello(5, seq);
  t.erase(5);
  EXPECT_FALSE(has_link(t, 5));
  t.on_hello(5, 50);
  EXPECT_DOUBLE_EQ(t.reverse_ratio(5), 1.0);
  EXPECT_DOUBLE_EQ(t.long_run_ratio(5), 1.0);
  t.on_hello(5, 52);  // one miss since re-admission
  EXPECT_DOUBLE_EQ(t.reverse_ratio(5), 2.0 / 3.0);
}

// -------------------------------------------------- asymmetry and bounds ---

TEST(LinkQuality, AsymmetricLinkMultipliesBothDirections) {
  // Reverse direction clean (every beacon heard), forward direction lossy
  // (the neighbor reports it receives only a quarter of ours):
  // ETX = 1/(0.25 * 1.0) = 4, exactly.
  LinkQualityTable t;
  for (std::uint32_t seq = 0; seq < 8; ++seq) t.on_hello(2, seq);
  EXPECT_DOUBLE_EQ(t.forward_ratio(2), 1.0);  // optimistic until a report
  t.on_report(2, 0.25);
  EXPECT_DOUBLE_EQ(t.forward_ratio(2), 0.25);
  EXPECT_DOUBLE_EQ(t.reverse_ratio(2), 1.0);
  EXPECT_DOUBLE_EQ(t.etx(2), 4.0);
}

TEST(LinkQuality, UnknownAndDeadLinksClampToMaxEtx) {
  LinkQualityTable t;
  EXPECT_DOUBLE_EQ(t.etx(99), LinkQualityTable::kMaxEtx);
  t.on_hello(4, 0);
  t.on_report(4, 0.0);  // reported fully lossy forward direction
  EXPECT_DOUBLE_EQ(t.etx(4), LinkQualityTable::kMaxEtx);
}

TEST(LinkQuality, NeighborsAreSortedById) {
  LinkQualityTable t;
  for (net::NodeId id : {9u, 3u, 7u, 1u}) t.on_hello(id, 0);
  EXPECT_EQ(t.neighbors(), (std::vector<net::NodeId>{1, 3, 7, 9}));
}

// -------------------------------------------------------------- EtxAgent ---

/// A hello frame from `origin` carrying its own fresh copy of `h`, as the
/// hello service sends one new header per beacon.
net::Packet hello_from(net::NodeId origin, net::HelloHeader h) {
  net::Packet p;
  p.kind = net::PacketKind::kHello;
  p.origin = origin;
  p.tx = origin;
  p.header = std::make_shared<const net::HelloHeader>(std::move(h));
  return p;
}

TEST(EtxAgent, RoutesThroughAdvertsAndDropsThemWithTheNeighbor) {
  EtxAgent agent{0, LinkCost::kEtx};
  // Neighbor 1, clean link both ways, advertising a route to 2 at cost 1.
  net::HelloHeader h;
  h.seq = 0;
  h.links.push_back({0, 1.0});
  h.routes.push_back({.dst = 1, .seq = 2, .dist = 0.0});
  h.routes.push_back({.dst = 2, .seq = 4, .dist = 1.0});
  for (std::uint32_t seq = 0; seq < 4; ++seq) {
    h.seq = seq;
    agent.on_hello(hello_from(1, h));
  }
  ASSERT_TRUE(agent.next_hop(2).has_value());
  EXPECT_EQ(*agent.next_hop(2), 1u);
  EXPECT_DOUBLE_EQ(agent.distance_to(2), 2.0);  // link ETX 1 + advert 1
  EXPECT_DOUBLE_EQ(agent.distance_to(0), 0.0);
  EXPECT_TRUE(agent.has_adverts_from(1));

  // The neighbor dies: its link AND its adverts go with it — no dangling
  // ETX edges through a crashed node.
  agent.on_neighbor_lost(1);
  EXPECT_FALSE(has_link(agent.table(), 1));
  EXPECT_FALSE(agent.has_adverts_from(1));
  EXPECT_FALSE(agent.next_hop(2).has_value());
  EXPECT_DOUBLE_EQ(agent.distance_to(2), LinkQualityTable::kMaxEtx);
}

TEST(EtxAgent, PrefersReliableTwoHopOverLossyDirect) {
  // Direct link to 2 at ratio 1/4 (ETX 16 after the neighbor's matching
  // report) vs a clean two-hop detour through 1 (ETX 2): under ETX Dijkstra
  // must take the detour — the whole point of the metric. The same hellos
  // under unit cost give dsdv's min-hop answer: the direct link, 1 hop.
  for (const LinkCost cost : {LinkCost::kEtx, LinkCost::kUnit}) {
    const bool etx = cost == LinkCost::kEtx;
    SCOPED_TRACE(etx ? "etx" : "unit");
    EtxAgent agent{0, cost};
    net::HelloHeader via;
    via.links.push_back({0, 1.0});
    via.routes.push_back({.dst = 1, .seq = 2, .dist = 0.0});
    via.routes.push_back({.dst = 2, .seq = 4, .dist = 1.0});
    net::HelloHeader direct;
    direct.links.push_back({0, 0.25});
    direct.routes.push_back({.dst = 2, .seq = 4, .dist = 0.0});
    for (std::uint32_t seq = 0; seq < 8; ++seq) {
      via.seq = seq;
      agent.on_hello(hello_from(1, via));
      if (seq % 4 == 0) {  // 2's beacons mostly lost: reverse ratio 2/8
        direct.seq = seq;
        agent.on_hello(hello_from(2, direct));
      }
    }
    ASSERT_TRUE(agent.next_hop(2).has_value());
    if (etx) {
      EXPECT_EQ(*agent.next_hop(2), 1u);
      EXPECT_LT(agent.distance_to(2), agent.table().etx(2));
    } else {
      EXPECT_EQ(*agent.next_hop(2), 2u);
      EXPECT_DOUBLE_EQ(agent.distance_to(2), 1.0);
    }
  }
}

TEST(EtxAgent, BeaconCarriesLinkReportsAndDistanceVector) {
  EtxAgent agent{0, LinkCost::kEtx};
  net::HelloHeader in;
  in.links.push_back({0, 1.0});
  in.routes.push_back({.dst = 1, .seq = 2, .dist = 0.0});
  in.routes.push_back({.dst = 7, .seq = 6, .dist = 2.0});
  for (std::uint32_t seq = 0; seq < 4; ++seq) {
    in.seq = seq;
    agent.on_hello(hello_from(1, in));
  }
  net::HelloHeader out;
  const std::size_t extra = agent.fill_beacon(out);
  ASSERT_EQ(out.links.size(), 1u);
  EXPECT_EQ(out.links[0].neighbor, 1u);
  EXPECT_DOUBLE_EQ(out.links[0].ratio, 1.0);
  // Distance vector: self at 0, neighbor 1, advertised 7 — all reachable.
  ASSERT_EQ(out.routes.size(), 3u);
  EXPECT_EQ(out.routes[0].dst, 0u);
  EXPECT_DOUBLE_EQ(out.routes[0].dist, 0.0);
  // On-air cost is the wire model's, independent of the in-memory layout:
  // 6 B per link report + 10 B per route entry.
  EXPECT_EQ(extra, 6u * out.links.size() + 10u * out.routes.size());
  EXPECT_EQ(extra, 36u);
}

TEST(EtxAgent, ReceiversShareOneBeacon) {
  // Every receiver of a frame holds the frame's own header: three agents
  // that take one hello add three references to it and copy nothing.
  net::HelloHeader h;
  h.links.push_back({0, 1.0});
  h.routes.push_back({.dst = 1, .seq = 2, .dist = 0.0});
  h.routes.push_back({.dst = 9, .seq = 4, .dist = 2.0});
  const net::Packet p = hello_from(1, h);
  EtxAgent a{0, LinkCost::kEtx};
  EtxAgent b{2, LinkCost::kEtx};
  EtxAgent c{3, LinkCost::kEtx};
  for (EtxAgent* agent : {&a, &b, &c}) agent->on_hello(p);
  EXPECT_EQ(p.header.use_count(), 4);
  EXPECT_DOUBLE_EQ(a.distance_to(9), 3.0);  // link ETX 1 + advert 2
  EXPECT_TRUE(b.has_adverts_from(1));
}

TEST(EtxAgent, NewerBeaconOrLossReleasesTheOldOne) {
  net::HelloHeader h;
  h.links.push_back({0, 1.0});
  h.routes.push_back({.dst = 1, .seq = 2, .dist = 0.0});
  h.routes.push_back({.dst = 9, .seq = 4, .dist = 2.0});
  EtxAgent agent{0, LinkCost::kEtx};
  const net::Packet first = hello_from(1, h);
  agent.on_hello(first);
  EXPECT_EQ(first.header.use_count(), 2);
  // The sender's next beacon replaces the held one wholesale.
  h.seq = 1;
  const net::Packet second = hello_from(1, h);
  agent.on_hello(second);
  EXPECT_EQ(first.header.use_count(), 1);
  EXPECT_EQ(second.header.use_count(), 2);
  // Losing the neighbor lets go of its last beacon too.
  agent.on_neighbor_lost(1);
  EXPECT_EQ(second.header.use_count(), 1);
  EXPECT_FALSE(agent.has_adverts_from(1));
}

TEST(EtxAgent, EntryRefusedAgainstAKillStaysRefusedAfterTheKillClears) {
  const auto hello = [](std::uint32_t seq,
                        std::vector<net::HelloRouteEntry> routes) {
    net::HelloHeader h;
    h.seq = seq;
    h.links.push_back({0, 1.0});
    h.routes = std::move(routes);
    return h;
  };
  constexpr double kPoison = LinkQualityTable::kMaxEtx;
  EtxAgent agent{0, LinkCost::kEtx};
  // 1 offers 5 cheaply; 2 then invalidates 5 one sequence past it.
  agent.on_hello(hello_from(1, hello(0, {{1, 2, 0.0}, {5, 4, 1.0}})));
  agent.on_hello(hello_from(2, hello(0, {{2, 2, 0.0}, {5, 5, kPoison}})));
  EXPECT_TRUE(agent.has_kill_for(5));
  // 1's next beacon repeats the stale entry, between two live ones:
  // refused against the kill.
  agent.on_hello(
      hello_from(1, hello(1, {{1, 4, 0.0}, {5, 4, 1.0}, {6, 2, 1.0}})));
  EXPECT_FALSE(agent.next_hop(5).has_value());
  // 3 carries 5's newer sequence, which clears the kill. 1's held beacon
  // still names 5 at cost 1, but that entry was refused when it arrived,
  // so the only route is 3's (1 + 3), not 1's (1 + 1).
  agent.on_hello(hello_from(3, hello(0, {{3, 2, 0.0}, {5, 6, 3.0}})));
  EXPECT_FALSE(agent.has_kill_for(5));
  ASSERT_TRUE(agent.next_hop(5).has_value());
  EXPECT_EQ(*agent.next_hop(5), 3u);
  EXPECT_DOUBLE_EQ(agent.distance_to(5), 4.0);
  // The same beacon's other entries were accepted and still route.
  EXPECT_EQ(agent.next_hop(1), std::optional<net::NodeId>{1});
  EXPECT_EQ(agent.next_hop(6), std::optional<net::NodeId>{1});
}

// ------------------------------------------- differential vs ordered maps ---

/// Reference oracle: the agent written over ordered maps, with a fresh
/// priority queue per Dijkstra run that holds every relaxed node. The dense
/// agent must match it entry for entry on every observable.
class MapEtxAgent {
 public:
  MapEtxAgent(net::NodeId self, LinkCost cost) : self_{self}, cost_{cost} {}

  std::size_t fill_beacon(net::HelloHeader& h) {
    for (const net::NodeId n : table_.neighbors()) {
      h.links.push_back({n, table_.reverse_ratio(n)});
    }
    own_seq_ += 2;
    compute_routes();
    h.routes.push_back({.dst = self_, .seq = own_seq_, .dist = 0.0});
    for (const auto& [dst, route] : routes_) {
      if (route.dist >= LinkQualityTable::kMaxEtx) continue;
      const auto seq = dst_seqs_.find(dst);
      h.routes.push_back(
          {.dst = dst,
           .seq = seq != dst_seqs_.end() ? seq->second : route.seq,
           .dist = route.dist});
    }
    for (auto& [dst, kill] : kills_) {
      if (kill.beacons_left <= 0) continue;
      --kill.beacons_left;
      h.routes.push_back(
          {.dst = dst, .seq = kill.seq, .dist = LinkQualityTable::kMaxEtx});
    }
    return 6 * h.links.size() + 10 * h.routes.size();
  }

  void on_hello(const net::Packet& p) {
    const net::HelloHeader& h = *p.header_as<net::HelloHeader>();
    table_.on_hello(p.origin, h.seq);
    for (const auto& link : h.links) {
      if (link.neighbor == self_) {
        table_.on_report(p.origin, link.ratio);
        break;
      }
    }
    auto& slot = adverts_[p.origin];
    slot.clear();
    for (const auto& advert : h.routes) {
      if (advert.dst == self_) continue;
      if (advert.dist >= LinkQualityTable::kMaxEtx) {
        const auto seq = dst_seqs_.find(advert.dst);
        const std::uint32_t known = seq != dst_seqs_.end() ? seq->second : 0;
        auto [kill, fresh] =
            kills_.try_emplace(advert.dst, Kill{advert.seq, 3});
        if (!fresh && advert.seq > kill->second.seq) {
          kill->second = Kill{advert.seq, 3};
        }
        if (kill->second.seq <= known) kills_.erase(kill);
        continue;
      }
      const auto kill = kills_.find(advert.dst);
      if (kill != kills_.end()) {
        if (advert.seq <= kill->second.seq) continue;
        kills_.erase(kill);
      }
      auto [seq, fresh] = dst_seqs_.try_emplace(advert.dst, advert.seq);
      if (!fresh && advert.seq > seq->second) seq->second = advert.seq;
      slot.push_back(advert);
    }
    routes_dirty_ = true;
  }

  void on_neighbor_lost(net::NodeId lost) {
    table_.erase(lost);
    adverts_.erase(lost);
    const auto seq = dst_seqs_.find(lost);
    const std::uint32_t poison =
        (seq != dst_seqs_.end() ? seq->second : 0) + 1;
    auto [kill, fresh] = kills_.try_emplace(lost, Kill{poison, 3});
    if (!fresh && poison > kill->second.seq) kill->second = Kill{poison, 3};
    routes_dirty_ = true;
  }

  std::optional<net::NodeId> next_hop(net::NodeId dst) {
    compute_routes();
    const auto it = routes_.find(dst);
    if (it == routes_.end() || it->second.dist >= LinkQualityTable::kMaxEtx) {
      return std::nullopt;
    }
    return it->second.first_hop;
  }

  double distance_to(net::NodeId dst) {
    if (dst == self_) return 0.0;
    compute_routes();
    const auto it = routes_.find(dst);
    if (it == routes_.end()) return LinkQualityTable::kMaxEtx;
    return std::min(it->second.dist, LinkQualityTable::kMaxEtx);
  }

  bool has_adverts_from(net::NodeId from) const {
    return adverts_.contains(from);
  }
  bool has_kill_for(net::NodeId dst) const { return kills_.contains(dst); }

 private:
  struct Route {
    double dist = LinkQualityTable::kMaxEtx;
    net::NodeId first_hop = 0;
    std::uint32_t seq = 0;
  };
  struct Kill {
    std::uint32_t seq = 0;
    int beacons_left = 0;
  };

  void compute_routes() {
    if (!routes_dirty_) return;
    routes_dirty_ = false;
    routes_.clear();
    using QueueEntry = std::pair<double, net::NodeId>;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>>
        frontier;
    for (const net::NodeId n : table_.neighbors()) {
      const double cost = cost_ == LinkCost::kEtx ? table_.etx(n) : 1.0;
      if (cost >= LinkQualityTable::kMaxEtx) continue;
      auto [it, fresh] = routes_.try_emplace(n);
      if (fresh || cost < it->second.dist) {
        it->second = Route{cost, n, 0};
        frontier.push({cost, n});
      }
    }
    while (!frontier.empty()) {
      const auto [cost, node] = frontier.top();
      frontier.pop();
      const auto settled = routes_.find(node);
      if (settled == routes_.end() || cost > settled->second.dist) continue;
      const auto adverts = adverts_.find(node);
      if (adverts == adverts_.end()) continue;
      const net::NodeId first_hop = settled->second.first_hop;
      for (const auto& advert : adverts->second) {
        const auto kill = kills_.find(advert.dst);
        if (kill != kills_.end() && advert.seq <= kill->second.seq) continue;
        const double total = cost + advert.dist;
        if (total >= LinkQualityTable::kMaxEtx) continue;
        auto [it, fresh] = routes_.try_emplace(advert.dst);
        if (fresh || total < it->second.dist) {
          it->second = Route{total, first_hop, advert.seq};
          frontier.push({total, advert.dst});
        }
      }
    }
  }

  net::NodeId self_;
  LinkCost cost_;
  LinkQualityTable table_;
  std::map<net::NodeId, std::vector<net::HelloRouteEntry>> adverts_;
  std::map<net::NodeId, std::uint32_t> dst_seqs_;
  std::map<net::NodeId, Kill> kills_;
  std::uint32_t own_seq_ = 0;
  std::map<net::NodeId, Route> routes_;
  bool routes_dirty_ = true;
};

/// One random hello from `origin`. Distances are multiples of 0.5 (exact in
/// binary, so equal-cost paths tie exactly) with a share of poisoned
/// entries; sequences come from a narrow range, so stale adverts, kills
/// and their overrides all collide often.
net::HelloHeader random_hello(core::Rng& rng, net::NodeId origin,
                              std::uint32_t seq, net::NodeId self,
                              const std::vector<net::NodeId>& ids) {
  const auto pick = [&] {
    return ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
  };
  net::HelloHeader h;
  h.seq = seq;
  for (std::int64_t i = rng.uniform_int(0, 3); i > 0; --i) {
    h.links.push_back(
        {pick(), 0.25 * static_cast<double>(rng.uniform_int(0, 4))});
  }
  if (rng.bernoulli(0.7)) {
    h.links.push_back(
        {self, 0.25 * static_cast<double>(rng.uniform_int(1, 4))});
  }
  h.routes.push_back({.dst = origin, .seq = 2 * seq, .dist = 0.0});
  for (std::int64_t i = rng.uniform_int(0, 12); i > 0; --i) {
    const bool poisoned = rng.bernoulli(0.15);
    h.routes.push_back(
        {.dst = rng.bernoulli(0.05) ? self : pick(),
         .seq = static_cast<std::uint32_t>(rng.uniform_int(0, 12)),
         .dist = poisoned ? LinkQualityTable::kMaxEtx
                          : 0.5 * static_cast<double>(rng.uniform_int(1, 8))});
  }
  return h;
}

void expect_same_entries(const net::HelloHeader& a, const net::HelloHeader& b) {
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_EQ(a.links[i].neighbor, b.links[i].neighbor) << "link " << i;
    EXPECT_EQ(a.links[i].ratio, b.links[i].ratio) << "link " << i;
  }
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    EXPECT_EQ(a.routes[i].dst, b.routes[i].dst) << "route " << i;
    EXPECT_EQ(a.routes[i].seq, b.routes[i].seq) << "route " << i;
    EXPECT_EQ(a.routes[i].dist, b.routes[i].dist) << "route " << i;
  }
}

/// Drives the dense agent and the map reference with the same random
/// hellos and losses under `cost`, comparing every observable each step.
void expect_dense_matches_reference(LinkCost cost) {
  constexpr int kSeeds = 30;
  constexpr int kSteps = 300;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    core::Rng rng{static_cast<std::uint64_t>(seed)};
    // Sparse ids up to 300; self sits among them, not at 0.
    std::vector<net::NodeId> ids(16);
    for (net::NodeId& id : ids) {
      id = static_cast<net::NodeId>(rng.uniform_int(0, 300));
    }
    const net::NodeId self = ids.front();
    std::vector<net::NodeId> senders;
    for (const net::NodeId id : ids) {
      if (id != self) senders.push_back(id);
    }
    std::map<net::NodeId, std::uint32_t> next_seq;
    EtxAgent dense{self, cost};
    MapEtxAgent reference{self, cost};

    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const net::NodeId who = senders[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(senders.size()) - 1))];
      const double action = rng.uniform(0.0, 1.0);
      if (action < 0.8) {
        // A hello, after 0-2 lost beacons; a lost neighbor's next hello is
        // its re-admission.
        std::uint32_t& seq = next_seq[who];
        seq += static_cast<std::uint32_t>(rng.uniform_int(0, 2));
        const net::Packet p =
            hello_from(who, random_hello(rng, who, seq++, self, ids));
        dense.on_hello(p);
        reference.on_hello(p);
      } else {
        dense.on_neighbor_lost(who);
        reference.on_neighbor_lost(who);
      }

      for (const net::NodeId id : ids) {
        EXPECT_EQ(dense.next_hop(id), reference.next_hop(id)) << "id " << id;
        EXPECT_EQ(dense.distance_to(id), reference.distance_to(id))
            << "id " << id;
        EXPECT_EQ(dense.has_adverts_from(id), reference.has_adverts_from(id))
            << "id " << id;
        EXPECT_EQ(dense.has_kill_for(id), reference.has_kill_for(id))
            << "id " << id;
      }
      EXPECT_FALSE(dense.has_adverts_from(1000));
      EXPECT_EQ(dense.distance_to(1000), LinkQualityTable::kMaxEtx);
      net::HelloHeader a;
      net::HelloHeader b;
      EXPECT_EQ(dense.fill_beacon(a), reference.fill_beacon(b));
      expect_same_entries(a, b);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(EtxAgent, DenseAgentMatchesOrderedMapReference) {
  for (const LinkCost cost : {LinkCost::kEtx, LinkCost::kUnit}) {
    SCOPED_TRACE(cost == LinkCost::kEtx ? "etx" : "unit");
    expect_dense_matches_reference(cost);
    if (HasFailure()) return;
  }
}

// ----------------------------------------- Nakagami convergence property ---

/// Two stationary vehicles at `distance` under Nakagami-m fading, hello
/// beacons only, expiry disabled so the estimator is isolated from the
/// aging path (aging has its own tests above and the churn test below).
struct ConvergenceFixture {
  core::Simulator sim;
  core::RngManager rngs;
  std::unique_ptr<mobility::MobilityManager> mgr;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<net::HelloService> hello;
  EtxAgent agent{0, LinkCost::kEtx};

  ConvergenceFixture(double distance, int m, std::uint64_t seed)
      : rngs{seed} {
    auto model = std::make_unique<mobility::ConstantVelocityModel>();
    model->add_vehicle({0.0, 0.0}, {1.0, 0.0}, 0.0);
    model->add_vehicle({distance, 0.0}, {1.0, 0.0}, 0.0);
    mgr = std::make_unique<mobility::MobilityManager>(sim, std::move(model),
                                                      rngs.stream("m"));
    net = std::make_unique<net::Network>(
        sim, mgr.get(), std::make_unique<net::NakagamiFadingModel>(
                            analysis::LogNormalParams{}, m),
        rngs.stream("net"));
    net->add_vehicle_node(0);
    net->add_vehicle_node(1);
    net::HelloConfig cfg;
    cfg.expiry = core::SimTime::seconds(1e9);  // no aging in this fixture
    hello = std::make_unique<net::HelloService>(*net, rngs.stream("hello"),
                                                cfg);
    for (net::NodeId id : net->node_ids()) {
      net->set_receive_handler(id, [this, id](const net::Packet& p) {
        if (p.kind == net::PacketKind::kHello) hello->on_frame(id, p);
      });
    }
    agent.attach(*hello);
  }
};

struct ConvergenceCase {
  double distance;
  int m;
};

/// gtest's default printer dumps the struct's bytes, padding included, so
/// the names ctest lists would change from build to build.
void PrintTo(const ConvergenceCase& c, std::ostream* os) {
  *os << "distance " << c.distance << " m, m " << c.m;
}

class EtxConvergence : public ::testing::TestWithParam<ConvergenceCase> {};

TEST_P(EtxConvergence, LongRunRatioMatchesClosedFormReceiptProbability) {
  const auto [distance, m] = GetParam();
  constexpr double kDurationS = 400.0;
  const auto seed = static_cast<std::uint64_t>(1000 + 10 * distance + m);
  ConvergenceFixture f{distance, m, seed};
  f.mgr->start();
  f.hello->start(f.net->node_ids());
  f.sim.run_until(core::SimTime::seconds(kDurationS));

  const double p = f.net->propagation().receipt_probability(distance);
  ASSERT_GT(p, 0.05) << "degenerate case: pick a closer distance";
  const double est = f.agent.table().long_run_ratio(1);
  ASSERT_GT(est, 0.0) << "no beacon from the neighbor ever decoded";
  // Seeded binomial confidence interval: ~kDurationS Bernoulli(p) beacons
  // (1 Hz, minus jitter slack), the first decoded one counted by
  // construction. 4 sigma + the first-contact bias keeps the fixed-seed
  // flake probability negligible without hiding real estimator bugs.
  const double n = 0.9 * kDurationS;
  const double tolerance = 4.0 * std::sqrt(p * (1.0 - p) / n) + 2.0 / n;
  EXPECT_NEAR(est, p, tolerance)
      << "distance=" << distance << " m=" << m << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    DistancesAndShapes, EtxConvergence,
    ::testing::Values(ConvergenceCase{60.0, 1}, ConvergenceCase{100.0, 1},
                      ConvergenceCase{140.0, 1}, ConvergenceCase{60.0, 3},
                      ConvergenceCase{100.0, 3}, ConvergenceCase{140.0, 3}),
    [](const ::testing::TestParamInfo<ConvergenceCase>& tpi) {
      return "d" + std::to_string(static_cast<int>(tpi.param.distance)) +
             "_m" + std::to_string(tpi.param.m);
    });

// --------------------------------------------------- scenario-level churn ---

TEST(EtxScenario, NodeOutageLeavesNoDanglingEstimatorState) {
  // Planned outage without restart: after the hello expiry plus a few beacon
  // rounds, no surviving node may hold a link, an advert set, or a route
  // toward the dead node — the soft-state discipline end-to-end.
  sim::ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.duration_s = 12.0;
  cfg.mobility = sim::MobilityKind::kManhattan;
  cfg.manhattan.streets_x = 4;
  cfg.manhattan.streets_y = 4;
  cfg.manhattan.block = 120.0;
  cfg.vehicles = 12;
  cfg.protocol = "etx";
  cfg.fault.plan = "node:2:3";  // down at t=3, never restarts
  cfg.traffic.flows = 4;
  cfg.traffic.stop_s = 12.0;
  sim::Scenario s{cfg};
  s.run();

  for (net::NodeId id = 0; id < 12; ++id) {
    if (id == 2) continue;
    auto* etx = dynamic_cast<EtxProtocol*>(&s.protocol_at(id));
    ASSERT_NE(etx, nullptr);
    EXPECT_FALSE(has_link(etx->agent().table(), 2)) << "node " << id;
    EXPECT_FALSE(etx->agent().has_adverts_from(2)) << "node " << id;
    EXPECT_FALSE(etx->agent().next_hop(2).has_value()) << "node " << id;
  }
  const sim::ScenarioReport r = s.report();
  EXPECT_TRUE(r.linkquality.has_value());
  ASSERT_TRUE(r.fault.has_value());
  EXPECT_EQ(r.fault->node_outages, 1u);
}

// ------------------------------------------------------ flood suppression ---

sim::ScenarioConfig flooding_city() {
  sim::ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.duration_s = 10.0;
  cfg.mobility = sim::MobilityKind::kManhattan;
  cfg.manhattan.streets_x = 5;
  cfg.manhattan.streets_y = 5;
  cfg.manhattan.block = 120.0;
  cfg.vehicles = 25;
  cfg.protocol = "flooding";
  cfg.traffic.flows = 6;
  cfg.traffic.stop_s = 10.0;
  return cfg;
}

TEST(FloodSuppressionTest, EtxModeCancelsRebroadcastsAndReportsThem) {
  sim::ScenarioConfig base = flooding_city();
  sim::Scenario plain{base};
  plain.run();
  const sim::ScenarioReport rp = plain.report();
  EXPECT_FALSE(rp.linkquality.has_value());

  sim::ScenarioConfig sup = flooding_city();
  sup.flood_suppression = FloodSuppression::kEtx;
  sim::Scenario coordinated{sup};
  coordinated.run();
  const sim::ScenarioReport rs = coordinated.report();
  ASSERT_TRUE(rs.linkquality.has_value());
  EXPECT_GT(rs.linkquality->suppressed_rebroadcasts, 0u);
  // Every cancelled rebroadcast is a data frame that never hit the air.
  EXPECT_LT(rs.data_frames, rp.data_frames);
  // Coordination must not cost delivery on a clean channel.
  EXPECT_GE(rs.delivered + 2, rp.delivered);
}

// Paired over seeds: suppression may trim frames, not delivery. The 95 %
// Student-t interval of (suppressed - plain) delivered packets over 20
// seeds must reach 0. With kSuppressCopies = 1 it reads -6.3 +- 1.5 of ~60
// packets over seeds 1-40, at reachable_fraction 0.998.
TEST(FloodSuppressionTest, SuppressionCostsNoDeliveryOverSeeds) {
  constexpr int kSeeds = 20;
  constexpr double kT95Df19 = 2.093;  // two-sided 95 % Student-t, 19 df
  analysis::RunningStats diff;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    sim::ScenarioConfig cfg = flooding_city();
    cfg.seed = static_cast<std::uint64_t>(seed);
    sim::Scenario plain{cfg};
    plain.run();
    cfg.flood_suppression = FloodSuppression::kEtx;
    sim::Scenario coordinated{cfg};
    coordinated.run();
    diff.add(static_cast<double>(coordinated.report().delivered) -
             static_cast<double>(plain.report().delivered));
  }
  const double half = kT95Df19 * diff.stddev() / std::sqrt(kSeeds);
  EXPECT_GE(diff.mean() + half, 0.0)
      << "suppressed - plain delivered: " << diff.mean() << " +- " << half;
}

TEST(FloodSuppressionTest, BiswasComposesSuppressionWithImplicitAcks) {
  sim::ScenarioConfig cfg = flooding_city();
  cfg.protocol = "biswas";
  cfg.flood_suppression = FloodSuppression::kEtx;
  sim::Scenario s{cfg};
  s.run();
  const sim::ScenarioReport r = s.report();
  ASSERT_TRUE(r.linkquality.has_value());
  EXPECT_GT(r.linkquality->suppressed_rebroadcasts, 0u);
  EXPECT_GT(r.delivered, 0u);
}

// ------------------------------------------------------------ determinism ---

TEST(EtxScenario, SweepIsByteIdenticalAcrossWorkerCounts) {
  // jobs=1 == jobs=4 for an etx and dsdv sweep under fast fading: the
  // estimator, the piggyback held by reference and the suppression jitter
  // all ride per-run streams, so worker scheduling cannot perturb them.
  sim::ExperimentSpec spec;
  spec.base.duration_s = 8.0;
  spec.base.mobility = sim::MobilityKind::kManhattan;
  spec.base.manhattan.streets_x = 5;
  spec.base.manhattan.streets_y = 5;
  spec.base.manhattan.block = 120.0;
  spec.base.vehicles = 20;
  spec.base.phy = sim::PhyModel::kNakagami;
  spec.base.nakagami_m = 1;
  spec.base.traffic.flows = 6;
  spec.base.traffic.stop_s = 8.0;
  spec.protocols = {"etx", "dsdv"};
  spec.seeds = {1, 2};

  std::ostringstream serial, parallel;
  sim::JsonlSink serial_sink{serial, /*include_runs=*/true};
  sim::JsonlSink parallel_sink{parallel, /*include_runs=*/true};
  sim::ExperimentEngine{1}.run(spec, serial_sink);
  sim::ExperimentEngine{4}.run(spec, parallel_sink);
  EXPECT_EQ(serial.str(), parallel.str());
  EXPECT_NE(serial.str().find("\"protocol\":\"etx\""), std::string::npos);
  EXPECT_NE(serial.str().find("\"protocol\":\"dsdv\""), std::string::npos);
}

}  // namespace
}  // namespace vanet::routing
