// Bus-ferry routing (Kitani et al. [19], Sec. V-B).
//
// Buses on regular routes act as message ferries with large buffers: when a
// vehicle cannot make greedy progress it hands the packet to a bus in range;
// the bus carries it and periodically re-evaluates — delivering directly
// when the destination appears, or handing off to a vehicle that makes
// clear progress. This is store-carry-forward with mobile infrastructure.
#pragma once

#include <vector>

#include "routing/geographic/geo_base.h"

namespace vanet::routing {

class BusProtocol final : public GeoUnicastBase {
 public:
  void start() override;

  std::string_view name() const override { return "bus"; }
  Category category() const override { return Category::kInfrastructure; }

 protected:
  double score_candidate(const net::NeighborInfo& cand, double progress,
                         double distance) const override;
  void no_candidate(net::Packet p) override;

 private:
  struct Carried {
    net::Packet packet;
    core::SimTime deadline{};
  };

  bool is_bus(net::NodeId id) const { return ferries().contains(id); }
  const net::NeighborInfo* bus_neighbor() const;
  void carry(net::Packet p, double seconds);
  void ferry_tick();

  std::vector<Carried> cargo_;
  bool tick_scheduled_ = false;

  static constexpr double kBusBufferSeconds = 60.0;
  static constexpr double kCarBufferSeconds = 3.0;
  static constexpr double kFerryTickSeconds = 1.0;
  static constexpr double kHandoffProgress = 50.0;  ///< m, hysteresis
  static constexpr std::size_t kBusCargoCap = 256;
  static constexpr std::size_t kCarCargoCap = 16;
};

}  // namespace vanet::routing
