// DSR [7] (Sec. III-B): on-demand source routing.
//
// RREQs accumulate the traversed node list; the destination returns the full
// path in the RREP; data packets carry the source route and are forwarded
// hop-by-hop along it. Sources cache routes and purge them on link-failure
// reports (RERR naming the broken link).
#pragma once

#include <unordered_map>
#include <vector>

#include "routing/dup_cache.h"
#include "routing/protocol.h"

namespace vanet::routing {

struct DsrRreqHeader final : net::Header {
  static constexpr net::HeaderTag kTag = net::HeaderTag::kDsrRreq;
  DsrRreqHeader() : net::Header{kTag} {}
  std::uint32_t rreq_id = 0;
  net::NodeId target = 0;
  std::vector<net::NodeId> path;  ///< origin .. current node
};

struct DsrRrepHeader final : net::Header {
  static constexpr net::HeaderTag kTag = net::HeaderTag::kDsrRrep;
  DsrRrepHeader() : net::Header{kTag} {}
  std::uint32_t rreq_id = 0;
  std::vector<net::NodeId> path;  ///< origin .. target, complete
};

struct DsrDataHeader final : net::Header {
  static constexpr net::HeaderTag kTag = net::HeaderTag::kDsrData;
  DsrDataHeader() : net::Header{kTag} {}
  std::vector<net::NodeId> path;  ///< origin .. destination
};

struct DsrRerrHeader final : net::Header {
  static constexpr net::HeaderTag kTag = net::HeaderTag::kDsrRerr;
  DsrRerrHeader() : net::Header{kTag} {}
  net::NodeId link_from = 0;
  net::NodeId link_to = 0;
  std::vector<net::NodeId> path;  ///< data path, for relaying toward the origin
};

class DsrProtocol final : public RoutingProtocol {
 public:
  bool originate(net::NodeId dst, std::uint32_t flow, std::uint32_t seq,
                 std::size_t bytes) override;
  void handle_frame(const net::Packet& p) override;
  void handle_unicast_failure(const net::Packet& p) override;

  std::string_view name() const override { return "dsr"; }
  Category category() const override { return Category::kConnectivity; }

 private:
  struct CachedRoute {
    std::vector<net::NodeId> path;
    core::SimTime expires{};
    core::SimTime established{};
  };

  void handle_rreq(const net::Packet& p);
  void handle_rrep(const net::Packet& p);
  void handle_rerr(const net::Packet& p);
  void handle_data(const net::Packet& p);
  void start_discovery(net::NodeId dst);
  void discovery_timeout(net::NodeId dst);
  void send_with_route(net::Packet p, const std::vector<net::NodeId>& path);
  const CachedRoute* cached_route(net::NodeId dst) const;
  void purge_routes_using(net::NodeId a, net::NodeId b);
  /// Next hop after `self` in `path`, or kBroadcastId when absent/at end.
  net::NodeId next_in_path(const std::vector<net::NodeId>& path) const;

  std::unordered_map<net::NodeId, CachedRoute> cache_;
  std::unordered_map<net::NodeId, std::vector<net::Packet>> buffer_;
  std::unordered_map<net::NodeId, int> discovery_attempts_;
  DupCache rreq_seen_;
  std::uint32_t next_rreq_id_ = 1;

  static constexpr std::size_t kBufferCap = 32;
  static constexpr int kMaxDiscoveryRetries = 2;
  static constexpr double kRouteTtlSeconds = 10.0;
};

}  // namespace vanet::routing
