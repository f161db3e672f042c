// Shared engine for on-demand (AODV-family) routing protocols.
//
// The engine implements the RREQ / RREP / RERR machinery of Sec. III-B —
// route discovery, reverse/forward route installation, data buffering during
// discovery, retries, expiry and break handling — while subclasses supply the
// *routing metric* policy, which is exactly where the paper's five categories
// differ:
//   - link admission / cost        (Abedi's direction filter, Taleb's groups)
//   - per-link lifetime prediction (PBR, Eqns. 1-4)
//   - per-link reliability         (GVGrid's probability model)
//   - RREQ fan-out                 (Yan's ticket-based probing)
//   - destination reply policy     (first-wins AODV vs. best-in-window)
// Subclasses override the protected hooks; the defaults reproduce plain AODV.
#pragma once

#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "core/vec2.h"
#include "routing/dup_cache.h"
#include "routing/protocol.h"

namespace vanet::routing {

struct RreqHeader final : net::Header {
  static constexpr net::HeaderTag kTag = net::HeaderTag::kRreq;
  RreqHeader() : net::Header{kTag} {}
  std::uint32_t rreq_id = 0;
  net::NodeId rreq_origin = 0;
  net::NodeId target = 0;
  int hops = 0;                ///< hops travelled so far
  double cost = 0.0;           ///< additive path cost (subclass semantics)
  double min_lifetime = std::numeric_limits<double>::infinity();
  double reliability = 1.0;    ///< multiplicative path reliability
  int tickets = 0;             ///< remaining probe tickets (Yan)
  // Kinematics of the previous hop at forwarding time (for link evaluation).
  core::Vec2 prev_pos;
  core::Vec2 prev_vel;
  core::Vec2 prev_acc;
  int prev_group = 0;          ///< Taleb velocity group of previous hop
  core::Vec2 origin_pos;
  core::Vec2 origin_vel;
  /// Road segment nearest origin_pos, stamped at origination by protocols
  /// whose corridor admission needs it (uses_road_corridor()); -1 otherwise.
  /// nearest_segment is a pure function of origin_pos, so receivers reusing
  /// the stamp get bit-identically what re-querying the index would return.
  int origin_seg = -1;
};

struct RrepHeader final : net::Header {
  static constexpr net::HeaderTag kTag = net::HeaderTag::kRrep;
  RrepHeader() : net::Header{kTag} {}
  std::uint32_t rreq_id = 0;
  net::NodeId rreq_origin = 0;
  net::NodeId target = 0;
  int hops = 0;                ///< hops from the destination so far
  int path_hops = 0;           ///< total hops of the selected path
  double cost = 0.0;
  double min_lifetime = std::numeric_limits<double>::infinity();
  double reliability = 1.0;
};

struct RerrHeader final : net::Header {
  static constexpr net::HeaderTag kTag = net::HeaderTag::kRerr;
  RerrHeader() : net::Header{kTag} {}
  net::NodeId broken_destination = 0;
};

/// Verdict of a subclass on one candidate link (prev hop -> this node).
struct LinkEval {
  bool usable = true;
  double cost = 1.0;        ///< added to path cost
  double lifetime = std::numeric_limits<double>::infinity();
  double reliability = 1.0;
};

/// Summary of one candidate path as seen in an RREQ at the destination (or a
/// forwarding decision point).
struct PathMetric {
  int hops = 0;
  double cost = 0.0;
  double min_lifetime = std::numeric_limits<double>::infinity();
  double reliability = 1.0;
};

class OnDemandBase : public RoutingProtocol {
 public:
  void handle_frame(const net::Packet& p) override;
  void handle_unicast_failure(const net::Packet& p) override;
  bool originate(net::NodeId dst, std::uint32_t flow, std::uint32_t seq,
                 std::size_t bytes) override;

 protected:
  struct RouteEntry {
    net::NodeId next_hop = 0;
    int hops = 0;
    double cost = 0.0;
    double predicted_lifetime = std::numeric_limits<double>::infinity();
    std::uint32_t epoch = 0;  ///< rreq id of the discovery that created it
    core::SimTime established{};
    core::SimTime expires{};
  };

  // ---- policy hooks -------------------------------------------------------
  /// Evaluate the link from the RREQ's previous hop to this node.
  virtual LinkEval evaluate_link(const RreqHeader& h) const;
  /// True when path `a` is preferable to `b` (destination selection).
  virtual bool path_better(const PathMetric& a, const PathMetric& b) const;
  /// Destination replies to the first RREQ instead of collecting a window.
  virtual bool reply_immediately() const { return true; }
  /// Window length when collecting candidate paths at the destination.
  virtual core::SimTime reply_window() const { return core::SimTime::millis(150); }
  /// Forward a (already updated) RREQ onward. Default: broadcast with jitter.
  virtual void forward_rreq(const net::Packet& p, const RreqHeader& h);
  /// Initial ticket count for fresh RREQs (0 = unlimited flooding).
  virtual int initial_tickets() const { return 0; }
  /// True when this protocol admits RREQs against a road-route corridor, so
  /// issue_rreq should resolve and stamp origin_seg. Default off: protocols
  /// that never read the stamp skip the segment query entirely.
  virtual bool uses_road_corridor() const { return false; }
  /// Fraction of the predicted route lifetime after which the source
  /// proactively re-discovers (0 disables; PBR/Taleb/Yan use ~0.7-0.8).
  virtual double preemptive_rebuild_fraction() const { return 0.0; }
  /// Upper bound on route age regardless of prediction.
  virtual core::SimTime route_lifetime_cap() const {
    return core::SimTime::seconds(10.0);
  }

  // ---- shared machinery (available to subclasses) -------------------------
  const RouteEntry* route_to(net::NodeId dst) const;
  void start_discovery(net::NodeId dst);
  PathMetric metric_of(const RreqHeader& h) const;
  /// Current kinematics of this node (position/velocity/acceleration).
  void stamp_self_kinematics(RreqHeader& h) const;

  static constexpr int kMaxDiscoveryRetries = 2;
  static constexpr double kDataPacketTtl = 32;

 private:
  struct PendingDiscovery {
    int attempts = 0;
    core::SimTime started{};
    core::EventHandle timeout;
  };
  struct ReplyCollector {
    core::SimTime first_seen{};
    RreqHeader best;
    net::NodeId best_prev = 0;
    bool scheduled = false;
  };

  void issue_rreq(net::NodeId dst);
  void handle_rreq(const net::Packet& p);
  void handle_rrep(const net::Packet& p);
  void handle_rerr(const net::Packet& p);
  void handle_data(const net::Packet& p);
  void send_rrep(std::uint32_t rreq_id, net::NodeId origin, const PathMetric& m);
  /// Install/refresh a route. Loop safety: within one discovery epoch only
  /// the first-arrival copy may create the entry (the flood's spanning tree
  /// is acyclic); a newer epoch or `force` (RREP path installs) overwrites.
  void install_route(net::NodeId dst, net::NodeId next_hop, int hops, double cost,
                     double predicted_lifetime, std::uint32_t epoch, bool force);
  void discovery_timeout(net::NodeId dst);
  void flush_buffer(net::NodeId dst);
  void drop_buffer(net::NodeId dst);
  void forward_data(net::Packet p, const RouteEntry& route);
  void route_broken(net::NodeId dst, const net::Packet* failed_packet);
  /// Report the break of the route to `broken_dst` back to `origin` with an
  /// RERR, when a reverse route to it is known (best effort).
  void send_rerr(net::NodeId origin, net::NodeId broken_dst);
  void schedule_preemptive_rebuild(net::NodeId dst, double predicted_lifetime);

  std::map<net::NodeId, RouteEntry> routes_;
  std::map<net::NodeId, PendingDiscovery> pending_;
  std::map<net::NodeId, std::vector<net::Packet>> buffer_;
  std::map<std::uint64_t, ReplyCollector> collectors_;  ///< keyed (origin,rreq)
  DupCache rreq_seen_;
  std::uint32_t next_rreq_id_ = 1;

  static constexpr std::size_t kBufferCap = 32;
  static constexpr std::size_t kRreqBytes = 48;
  static constexpr std::size_t kRrepBytes = 44;
  static constexpr std::size_t kRerrBytes = 24;
};

}  // namespace vanet::routing
