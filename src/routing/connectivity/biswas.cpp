#include "routing/connectivity/biswas.h"

namespace vanet::routing {

void BiswasProtocol::after_rebroadcast(const net::Packet& p) {
  const std::uint64_t key = flood_key(p);
  auto [it, inserted] = pending_.try_emplace(key);
  if (inserted) {
    it->second.packet = p;
  }
  it->second.acked = false;
  schedule(core::SimTime::seconds(kAckTimeoutMs * 1e-3) + jitter(50.0),
           [this, key] { check_ack(key); });
}

void BiswasProtocol::on_duplicate_overheard(const net::Packet& p) {
  auto it = pending_.find(flood_key(p));
  if (it != pending_.end()) it->second.acked = true;
}

void BiswasProtocol::check_ack(std::uint64_t key) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;
  PendingAck& pa = it->second;
  if (pa.acked || pa.retries >= kMaxRetransmits) {
    pending_.erase(it);
    return;
  }
  ++pa.retries;
  net::Packet again = pa.packet;
  // Quirk: a retransmission counts as a forward but adds no hop, since the
  // copy repeats a hop already charged.
  ++events().data_forwarded;
  broadcast(again);
  schedule(core::SimTime::seconds(kAckTimeoutMs * 1e-3) + jitter(50.0),
           [this, key] { check_ack(key); });
}

}  // namespace vanet::routing
