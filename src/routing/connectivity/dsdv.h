// DSDV [8] (Sec. III-B): proactive destination-sequenced distance vector.
//
// Every node periodically broadcasts its full routing table, tagged with
// per-destination sequence numbers; receivers apply the classic DSDV update
// rule (newer sequence wins; same sequence keeps the lower metric). Broken
// next hops advance the sequence by one (odd = invalid) and trigger an
// immediate advertisement. The periodic full dumps are the scalability cost
// the survey attributes to proactive protocols.
#pragma once

#include <unordered_map>
#include <vector>

#include "routing/protocol.h"

namespace vanet::routing {

struct DsdvHeader final : net::Header {
  static constexpr net::HeaderTag kTag = net::HeaderTag::kDsdv;
  DsdvHeader() : net::Header{kTag} {}
  struct Entry {
    net::NodeId dst = 0;
    std::uint16_t metric = 0;  ///< hop count; kInfMetric = unreachable
    std::uint32_t seq = 0;
  };
  std::vector<Entry> entries;
};

class DsdvProtocol final : public RoutingProtocol {
 public:
  bool originate(net::NodeId dst, std::uint32_t flow, std::uint32_t seq,
                 std::size_t bytes) override;
  void start() override;
  void handle_frame(const net::Packet& p) override;
  void handle_unicast_failure(const net::Packet& p) override;

  std::string_view name() const override { return "dsdv"; }
  Category category() const override { return Category::kConnectivity; }

  static constexpr std::uint16_t kInfMetric = 0xffff;

 private:
  struct TableEntry {
    net::NodeId next_hop = 0;
    std::uint16_t metric = kInfMetric;
    std::uint32_t seq = 0;
  };

  void periodic_update();
  void advertise();
  const TableEntry* valid_route(net::NodeId dst) const;

  std::unordered_map<net::NodeId, TableEntry> table_;
  std::uint32_t own_seq_ = 0;

  static constexpr double kUpdateIntervalSeconds = 2.0;
};

}  // namespace vanet::routing
