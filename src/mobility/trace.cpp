#include "mobility/trace.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/assert.h"

namespace vanet::mobility {

void Trace::add(VehicleId id, TraceSample sample) {
  auto& v = samples_[id];
  VANET_ASSERT_MSG(v.empty() || sample.t >= v.back().t,
                   "trace samples must be time-ordered per vehicle");
  v.push_back(sample);
}

double Trace::end_time() const {
  double end = 0.0;
  for (const auto& [id, v] : samples_) {
    if (!v.empty()) end = std::max(end, v.back().t);
  }
  return end;
}

Trace Trace::load_csv(std::istream& in) {
  Trace trace;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss{line};
    std::string field;
    double vals[5] = {};
    VehicleId id = 0;
    bool ok = true;
    for (int i = 0; i < 6 && ok; ++i) {
      if (!std::getline(ss, field, ',')) {
        ok = false;
        break;
      }
      try {
        if (i == 1) {
          id = static_cast<VehicleId>(std::stoul(field));
        } else {
          vals[i > 1 ? i - 1 : i] = std::stod(field);
        }
      } catch (const std::exception&) {
        ok = false;
      }
    }
    for (const double v : vals) ok = ok && std::isfinite(v);
    if (!ok) {
      throw std::runtime_error("trace csv: malformed line " +
                               std::to_string(line_no) + ": " + line);
    }
    const auto prev = trace.samples_.find(id);
    if (prev != trace.samples_.end() && vals[0] < prev->second.back().t) {
      throw std::runtime_error(
          "trace csv: line " + std::to_string(line_no) +
          " goes back in time for vehicle " + std::to_string(id) +
          " (after line " + std::to_string(prev->second.back().line) +
          "): " + line);
    }
    trace.add(id,
              TraceSample{vals[0], vals[1], vals[2], vals[3], vals[4], line_no});
  }
  return trace;
}

Trace Trace::load_csv_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("trace csv: cannot open " + path);
  return load_csv(in);
}

void Trace::save_csv(std::ostream& out) const {
  out << "# time,id,x,y,speed,angle\n";
  for (const auto& [id, v] : samples_) {
    for (const auto& s : v) {
      out << s.t << ',' << id << ',' << s.x << ',' << s.y << ',' << s.speed << ','
          << s.angle << '\n';
    }
  }
}

void Trace::save_csv_file(const std::string& path) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("trace csv: cannot write " + path);
  save_csv(out);
}

void TraceRecorder::capture(double t, const MobilityModel& model) {
  for (const auto& v : model.vehicles()) {
    trace_.add(v.id, TraceSample{t, v.pos.x, v.pos.y, v.speed,
                                 std::atan2(v.heading.y, v.heading.x)});
  }
}

TracePlaybackModel::TracePlaybackModel(Trace trace) : trace_{std::move(trace)} {
  states_.reserve(trace_.samples().size());
  for (const auto& [id, v] : trace_.samples()) {
    VANET_ASSERT_MSG(!v.empty(), "trace vehicle with no samples");
    VehicleState s;
    s.id = id;
    states_.push_back(s);
  }
  refresh_states();
}

void TracePlaybackModel::step(double dt, core::Rng& /*rng*/) {
  VANET_ASSERT(dt > 0.0);
  clock_ += dt;
  refresh_states();
}

void TracePlaybackModel::refresh_states() {
  std::size_t i = 0;
  for (const auto& [id, v] : trace_.samples()) {
    VehicleState& s = states_[i++];
    if (clock_ <= v.front().t || v.size() == 1) {
      const auto& a = v.front();
      s.pos = {a.x, a.y};
      s.speed = clock_ < a.t ? 0.0 : a.speed;
      s.heading = {std::cos(a.angle), std::sin(a.angle)};
      continue;
    }
    if (clock_ >= v.back().t) {
      const auto& b = v.back();
      s.pos = {b.x, b.y};
      s.speed = 0.0;  // parked at end of trace
      s.heading = {std::cos(b.angle), std::sin(b.angle)};
      continue;
    }
    // Binary search for the bracketing segment [lo, lo+1].
    std::size_t lo = 0, hi = v.size() - 1;
    while (hi - lo > 1) {
      const std::size_t mid = (lo + hi) / 2;
      if (v[mid].t <= clock_)
        lo = mid;
      else
        hi = mid;
    }
    const auto& a = v[lo];
    const auto& b = v[lo + 1];
    const double span = b.t - a.t;
    const double u = span > 0.0 ? (clock_ - a.t) / span : 0.0;
    s.pos = {a.x + (b.x - a.x) * u, a.y + (b.y - a.y) * u};
    const core::Vec2 seg{b.x - a.x, b.y - a.y};
    s.heading = seg.norm() > 1e-9 ? seg.normalized()
                                  : core::Vec2{std::cos(a.angle), std::sin(a.angle)};
    s.speed = a.speed + (b.speed - a.speed) * u;
  }
}

}  // namespace vanet::mobility
