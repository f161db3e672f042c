#include "sim/fault_plan.h"

#include <algorithm>
#include <stdexcept>

#include "core/assert.h"
#include "sim/config_kv.h"

namespace vanet::sim {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return {};
  const auto e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

[[noreturn]] void bad_entry(const std::string& entry, const std::string& why) {
  throw std::invalid_argument("fault.plan entry '" + entry + "': " + why);
}

int parse_id(const std::string& entry, const std::string& tok) {
  std::size_t used = 0;
  int v = 0;
  try {
    v = std::stoi(tok, &used);
  } catch (const std::exception&) {
    bad_entry(entry, "bad id '" + tok + "'");
  }
  if (used != tok.size() || v < 0) bad_entry(entry, "bad id '" + tok + "'");
  return v;
}

double parse_time(const std::string& entry, const std::string& tok) {
  const auto v = parse_double_checked(tok);
  if (!v || *v < 0.0 || !core::SimTime::fits_seconds(*v)) {
    bad_entry(entry, "bad time '" + tok + "'");
  }
  return *v;
}

}  // namespace

std::vector<PlannedFault> parse_fault_plan(const std::string& plan) {
  std::vector<PlannedFault> out;
  std::size_t pos = 0;
  while (pos <= plan.size()) {
    const std::size_t semi = std::min(plan.find(';', pos), plan.size());
    const std::string entry = trim(plan.substr(pos, semi - pos));
    pos = semi + 1;
    if (entry.empty()) continue;

    std::vector<std::string> tok;
    std::size_t t = 0;
    while (t <= entry.size()) {
      const std::size_t colon = std::min(entry.find(':', t), entry.size());
      tok.push_back(trim(entry.substr(t, colon - t)));
      t = colon + 1;
    }
    if (tok.size() < 3 || tok.size() > 4) {
      bad_entry(entry, "expected kind:id:at[:until]");
    }

    PlannedFault f;
    if (tok[0] == "node") {
      f.kind = PlannedFault::Kind::kNode;
    } else if (tok[0] == "seg") {
      f.kind = PlannedFault::Kind::kSegment;
    } else {
      bad_entry(entry, "unknown kind '" + tok[0] + "' (want node|seg)");
    }
    f.id = parse_id(entry, tok[1]);
    f.at_s = parse_time(entry, tok[2]);
    if (tok.size() == 4) {
      f.until_s = parse_time(entry, tok[3]);
      if (f.until_s <= f.at_s) bad_entry(entry, "until must be after at");
    }
    out.push_back(f);
  }
  return out;
}

FaultPlan::FaultPlan(core::Simulator& sim, net::Network& net,
                     mobility::GraphMobilityModel* roads, core::Rng& rng,
                     FaultConfig cfg, double duration_s)
    : sim_{sim},
      net_{net},
      roads_{roads},
      rng_{rng},
      cfg_{std::move(cfg)},
      end_{core::SimTime::seconds(duration_s)} {}

void FaultPlan::mark(core::SimTime t, int delta) {
  active_ += delta;
  VANET_ASSERT(active_ >= 0);
  timeline_.emplace_back(t, active_);
}

void FaultPlan::apply_node(net::NodeId id, bool up) {
  if (net_.node_up(id) == up) return;  // overlap: last writer wins, no-op
  net_.set_node_up(id, up);
  if (up) {
    ++counters_.node_restarts;
    mark(sim_.now(), -1);
  } else {
    ++counters_.node_outages;
    mark(sim_.now(), +1);
  }
}

void FaultPlan::apply_segment(int seg, bool blocked) {
  VANET_ASSERT(roads_ != nullptr);
  if (roads_->segment_blocked(seg) == blocked) return;
  roads_->set_segment_blocked(seg, blocked);
  if (blocked) {
    ++counters_.segment_blocks;
    mark(sim_.now(), +1);
  } else {
    ++counters_.segment_clears;
    mark(sim_.now(), -1);
  }
}

void FaultPlan::schedule_churn_crash(net::NodeId id, core::SimTime at) {
  if (at > end_) return;
  sim_.schedule_at(at, [this, id] {
    const bool rsu = net_.is_rsu(id);
    const double down_s = rsu ? cfg_.rsu_downtime_s : cfg_.vehicle_downtime_s;
    const double mtbf_s = rsu ? cfg_.rsu_mtbf_s : cfg_.vehicle_mtbf_s;
    apply_node(id, false);
    const core::SimTime up_at = sim_.now() + core::SimTime::seconds(down_s);
    if (up_at <= end_) {
      sim_.schedule_at(up_at, [this, id] { apply_node(id, true); });
    }
    // Re-arm even when past the horizon: the draw keeps each node's failure
    // process independent of the run length.
    schedule_churn_crash(
        id, up_at + core::SimTime::seconds(rng_.exponential(1.0 / mtbf_s)));
  });
}

void FaultPlan::start() {
  VANET_ASSERT_MSG(!started_, "FaultPlan::start called twice");
  started_ = true;
  if (!cfg_.enabled) return;

  if (cfg_.vehicle_mtbf_s < 0.0 || cfg_.rsu_mtbf_s < 0.0) {
    throw std::invalid_argument("fault: mtbf must be >= 0");
  }
  if ((cfg_.vehicle_mtbf_s > 0.0 && cfg_.vehicle_downtime_s <= 0.0) ||
      (cfg_.rsu_mtbf_s > 0.0 && cfg_.rsu_downtime_s <= 0.0)) {
    throw std::invalid_argument("fault: downtime must be > 0 when churn is on");
  }

  // Validate the whole plan before scheduling anything, so a bad spec fails
  // cleanly with no events enqueued.
  const std::vector<PlannedFault> plan = parse_fault_plan(cfg_.plan);
  const auto nodes = static_cast<int>(net_.node_count());
  for (const PlannedFault& f : plan) {
    if (f.kind == PlannedFault::Kind::kNode) {
      if (f.id >= nodes) {
        throw std::invalid_argument("fault.plan: node id " +
                                    std::to_string(f.id) + " out of range (" +
                                    std::to_string(nodes) + " nodes)");
      }
    } else {
      if (roads_ == nullptr) {
        throw std::invalid_argument(
            "fault.plan: segment faults need graph mobility (mobility=graph)");
      }
      if (static_cast<std::size_t>(f.id) >= roads_->graph().segment_count()) {
        throw std::invalid_argument(
            "fault.plan: segment id " + std::to_string(f.id) +
            " out of range (" +
            std::to_string(roads_->graph().segment_count()) + " segments)");
      }
    }
  }

  for (const PlannedFault& f : plan) {
    const int id = f.id;
    if (f.kind == PlannedFault::Kind::kNode) {
      sim_.schedule_at(core::SimTime::seconds(f.at_s), [this, id] {
        apply_node(static_cast<net::NodeId>(id), false);
      });
      if (f.until_s >= 0.0) {
        sim_.schedule_at(core::SimTime::seconds(f.until_s), [this, id] {
          apply_node(static_cast<net::NodeId>(id), true);
        });
      }
    } else {
      sim_.schedule_at(core::SimTime::seconds(f.at_s),
                       [this, id] { apply_segment(id, true); });
      if (f.until_s >= 0.0) {
        sim_.schedule_at(core::SimTime::seconds(f.until_s),
                         [this, id] { apply_segment(id, false); });
      }
    }
  }

  // Seeded churn: one exponential first-crash draw per node, in node-id
  // order (vehicles precede RSUs by the Network id contract), so the draw
  // sequence is a pure function of the seed and the node roster.
  for (net::NodeId id = 0; id < static_cast<net::NodeId>(net_.node_count());
       ++id) {
    const double mtbf_s =
        net_.is_rsu(id) ? cfg_.rsu_mtbf_s : cfg_.vehicle_mtbf_s;
    if (mtbf_s <= 0.0) continue;
    schedule_churn_crash(
        id, core::SimTime::seconds(rng_.exponential(1.0 / mtbf_s)));
  }
}

bool FaultPlan::fault_active_at(core::SimTime t) const {
  // Last transition at or before t; none means no fault had been injected.
  auto it = std::upper_bound(
      timeline_.begin(), timeline_.end(), t,
      [](core::SimTime q, const std::pair<core::SimTime, int>& e) {
        return q < e.first;
      });
  if (it == timeline_.begin()) return false;
  return std::prev(it)->second > 0;
}

}  // namespace vanet::sim
