// Biswas et al. [9]: flooding with implicit acknowledgements (Sec. III-B).
//
// After rebroadcasting a packet, a vehicle listens for the same packet from
// other vehicles; hearing a copy implies someone received and re-relayed it.
// If no copy is overheard within a timeout, the vehicle rebroadcasts again
// (bounded retries). This trades extra transmissions for reliability in
// sparse traffic where a single broadcast may reach nobody.
#pragma once

#include <unordered_map>

#include "routing/connectivity/flooding.h"

namespace vanet::routing {

class BiswasProtocol final : public FloodingProtocol {
 public:
  /// Forwarded suppression mode: `flood.suppression=etx` defers + cancels
  /// exactly as in FloodingProtocol; an overheard copy both suppresses the
  /// deferred rebroadcast and counts as the implicit acknowledgement.
  explicit BiswasProtocol(FloodSuppression suppression)
      : FloodingProtocol{suppression} {}

  std::string_view name() const override { return "biswas"; }

 protected:
  void after_rebroadcast(const net::Packet& p) override;
  void on_duplicate_overheard(const net::Packet& p) override;

 private:
  struct PendingAck {
    net::Packet packet;
    int retries = 0;
    bool acked = false;
  };

  void check_ack(std::uint64_t key);

  std::unordered_map<std::uint64_t, PendingAck> pending_;

  static constexpr int kMaxRetransmits = 2;
  static constexpr double kAckTimeoutMs = 250.0;
};

}  // namespace vanet::routing
