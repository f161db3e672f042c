// SUMO-like mobility traces: CSV `(time,id,x,y,speed,angle)` rows.
//
// This is the drop-in substitution for public SUMO `fcd-output` data: our
// generators write the schema, and TracePlaybackModel replays any file in it
// (including converted real traces) with linear interpolation between samples.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "mobility/mobility_model.h"

namespace vanet::mobility {

struct TraceSample {
  double t = 0.0;       ///< seconds
  double x = 0.0;       ///< m
  double y = 0.0;       ///< m
  double speed = 0.0;   ///< m/s
  double angle = 0.0;   ///< heading in radians, atan2 convention
  /// Source CSV line of this sample (1-based); 0 for samples built in memory
  /// (TraceRecorder, tests). Diagnostics only — save_csv does not persist it
  /// — so trace↔map validation errors can point at the offending input line.
  std::size_t line = 0;
};

/// In-memory trace: per-vehicle samples sorted by time.
class Trace {
 public:
  void add(VehicleId id, TraceSample sample);

  const std::map<VehicleId, std::vector<TraceSample>>& samples() const {
    return samples_;
  }
  std::size_t vehicle_count() const { return samples_.size(); }
  double end_time() const;

  /// CSV round-trip. Throws std::runtime_error on malformed input.
  static Trace load_csv(std::istream& in);
  static Trace load_csv_file(const std::string& path);
  void save_csv(std::ostream& out) const;
  void save_csv_file(const std::string& path) const;

 private:
  std::map<VehicleId, std::vector<TraceSample>> samples_;
};

/// Records a running MobilityModel into a Trace (call `capture` per tick).
class TraceRecorder {
 public:
  void capture(double t, const MobilityModel& model);
  const Trace& trace() const { return trace_; }
  Trace take() { return std::move(trace_); }

 private:
  Trace trace_;
};

/// Replays a Trace as a MobilityModel. Vehicle ids are the trace ids; between
/// samples, position is interpolated linearly and speed/heading come from the
/// bracketing segment. Before the first / after the last sample the vehicle
/// is pinned at the boundary sample.
class TracePlaybackModel final : public MobilityModel {
 public:
  explicit TracePlaybackModel(Trace trace);

  void step(double dt, core::Rng& rng) override;
  const std::vector<VehicleState>& vehicles() const override { return states_; }

 private:
  void refresh_states();

  Trace trace_;
  double clock_ = 0.0;
  std::vector<VehicleState> states_;
};

}  // namespace vanet::mobility
