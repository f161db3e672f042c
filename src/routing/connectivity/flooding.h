// Pure flooding (Sec. III-A).
//
// The source broadcasts the data packet; every node rebroadcasts each packet
// the first time it hears it, until TTL expires or the whole network has a
// copy. Simple and robust at low density, but it generates the duplicate
// load that causes the broadcast storm of [5] — bench_fig2 measures exactly
// that.
//
// `flood.suppression=etx` arms coordinated rebroadcast suppression: instead
// of a flat jitter, a node defers its re-flood by a delay proportional to
// its multi-hop ETX distance to the packet's origin (well-connected nodes
// fire first) and cancels the deferred copy once it has overheard the same
// packet from kSuppressCopies others during the wait — the earlier
// transmitters were better placed, by the same delay rule. The threshold is
// the counter-based scheme of the broadcast-storm study (Ni, Tseng, Chen &
// Sheu, MobiCom 1999): cancelling on the first copy loses reachability.
#pragma once

#include <map>
#include <memory>

#include "routing/dup_cache.h"
#include "routing/linkquality/etx_agent.h"
#include "routing/protocol.h"

namespace vanet::routing {

class FloodingProtocol : public RoutingProtocol {
 public:
  explicit FloodingProtocol(FloodSuppression suppression)
      : suppression_{suppression} {}

  void start() override;
  bool originate(net::NodeId dst, std::uint32_t flow, std::uint32_t seq,
                 std::size_t bytes) override;
  void handle_frame(const net::Packet& p) override;

  std::string_view name() const override { return "flooding"; }
  Category category() const override { return Category::kConnectivity; }
  /// ETX suppression needs the link-quality machinery, which rides hellos.
  bool wants_hello() const override {
    return suppression_ == FloodSuppression::kEtx;
  }

 protected:
  /// Hook for Biswas: called after this node rebroadcasts `p`, and when a
  /// duplicate of an already-seen packet is overheard.
  virtual void after_rebroadcast(const net::Packet& p) { (void)p; }
  virtual void on_duplicate_overheard(const net::Packet& p) { (void)p; }

  static std::uint64_t flood_key(const net::Packet& p) {
    return DupCache::key(p.origin, p.flow, p.seq);
  }

  static constexpr int kFloodTtl = 16;
  static constexpr double kRebroadcastJitterMs = 15.0;
  /// ETX suppression: defer = kSuppressSlotMs per ETX unit to the origin
  /// (capped at kSuppressCapEtx units) + the usual jitter as a tie-breaker.
  static constexpr double kSuppressSlotMs = 4.0;
  static constexpr double kSuppressCapEtx = 16.0;
  /// Overheard copies that cancel a deferred rebroadcast.
  static constexpr int kSuppressCopies = 3;

 private:
  DupCache seen_;
  FloodSuppression suppression_;
  std::unique_ptr<EtxAgent> agent_;
  /// A rebroadcast waiting out its delay, and the copies overheard since.
  struct Deferred {
    core::EventHandle handle;
    int overheard = 0;
  };
  /// Deferred rebroadcasts, cancellable by flood key while they wait.
  std::map<std::uint64_t, Deferred> deferred_;
};

}  // namespace vanet::routing
