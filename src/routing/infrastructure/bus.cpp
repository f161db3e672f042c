#include "routing/infrastructure/bus.h"

#include <algorithm>

namespace vanet::routing {

void BusProtocol::start() {
  if (is_bus(self())) {
    tick_scheduled_ = true;
    schedule(core::SimTime::seconds(kFerryTickSeconds) + jitter(200.0),
             [this] { ferry_tick(); });
  }
}

double BusProtocol::score_candidate(const net::NeighborInfo& cand,
                                    double progress, double distance) const {
  (void)distance;
  // Plain greedy progress; buses get a mild preference since they have the
  // storage to ride out gaps.
  return progress * (is_bus(cand.id) ? 1.5 : 1.0);
}

const net::NeighborInfo* BusProtocol::bus_neighbor() const {
  const net::NeighborInfo* best = nullptr;
  double best_dist = 0.0;
  const core::Vec2 here = network().position(self());
  for (const auto& nbr : neighbors().snapshot()) {
    if (!is_bus(nbr.id) || blacklisted(nbr.id)) continue;
    const double d = (nbr.predicted_pos(now()) - here).norm();
    if (best == nullptr || d < best_dist) {
      best = &nbr;
      best_dist = d;
    }
  }
  return best;
}

void BusProtocol::no_candidate(net::Packet p) {
  if (is_bus(self())) {
    carry(std::move(p), kBusBufferSeconds);
    return;
  }
  if (const net::NeighborInfo* bus = bus_neighbor()) {
    charge_hop(p);
    unicast(bus->id, std::move(p));
    return;
  }
  // No bus around: hold briefly — the next hello may reveal one.
  carry(std::move(p), kCarBufferSeconds);
}

void BusProtocol::carry(net::Packet p, double seconds) {
  const std::size_t cap = is_bus(self()) ? kBusCargoCap : kCarCargoCap;
  if (cargo_.size() >= cap) {
    ++events().data_dropped_no_route;
    return;
  }
  cargo_.push_back(Carried{std::move(p), now() + core::SimTime::seconds(seconds)});
  if (!tick_scheduled_) {
    tick_scheduled_ = true;
    schedule(core::SimTime::seconds(kFerryTickSeconds), [this] { ferry_tick(); });
  }
}

void BusProtocol::ferry_tick() {
  std::vector<Carried> keep;
  for (auto& c : cargo_) {
    if (c.deadline <= now()) {
      ++events().data_dropped_no_route;
      continue;
    }
    // Destination in range: deliver directly.
    if (neighbors().find(c.packet.destination) != nullptr) {
      charge_hop(c.packet);
      unicast(c.packet.destination, std::move(c.packet));
      continue;
    }
    // Hand off only on clear progress (hysteresis avoids ping-pong).
    const core::Vec2 here = network().position(self());
    const core::Vec2 dest = destination_position(c.packet.destination);
    const double my_dist = (dest - here).norm();
    const net::NeighborInfo* best = nullptr;
    double best_progress = kHandoffProgress;
    for (const auto& nbr : neighbors().snapshot()) {
      if (blacklisted(nbr.id)) continue;
      const double progress =
          my_dist - (dest - nbr.predicted_pos(now())).norm();
      if (progress > best_progress) {
        best = &nbr;
        best_progress = progress;
      }
    }
    if (best != nullptr) {
      charge_hop(c.packet);
      unicast(best->id, std::move(c.packet));
      continue;
    }
    keep.push_back(std::move(c));
  }
  cargo_ = std::move(keep);
  tick_scheduled_ = is_bus(self()) || !cargo_.empty();
  if (tick_scheduled_) {
    schedule(core::SimTime::seconds(kFerryTickSeconds), [this] { ferry_tick(); });
  }
}

}  // namespace vanet::routing
