#include "sim/report_sink.h"

#include <cstdio>
#include <ostream>

#include "sim/config_kv.h"
#include "sim/table.h"

namespace vanet::sim {

namespace {

/// Shortest round-trip decimal representation (machine-readable sinks).
std::string num(double v) { return format_double(v); }

}  // namespace

ReportSink::~ReportSink() = default;
void ReportSink::begin(const std::vector<std::string>&) {}
void ReportSink::on_run(const RunRecord&) {}
void ReportSink::on_failure(const FailureRecord&) {}
void ReportSink::on_aggregate(const AggregateRecord&) {}
void ReportSink::end() {}

// ------------------------------------------------------------- markdown ---

void MarkdownSink::begin(const std::vector<std::string>& axis_keys) {
  axis_keys_ = axis_keys;
  rows_.clear();
  failure_lines_.clear();
}

void MarkdownSink::on_aggregate(const AggregateRecord& rec) {
  std::vector<std::string> row;
  row.push_back(rec.protocol);
  for (const auto& [key, value] : rec.axes) {
    (void)key;
    row.push_back(value);
  }
  const AggregateReport& a = rec.agg;
  row.push_back(fmt_int(a.runs.size()));
  row.push_back(fmt_pm(a.pdr.mean(), a.pdr.ci95_half_width(), 3));
  row.push_back(fmt(a.delay_ms.mean(), 1));
  row.push_back(fmt(a.hops.mean(), 2));
  row.push_back(fmt(a.control_per_delivered.mean(), 2));
  row.push_back(fmt(a.collision_fraction.mean(), 4));
  row.push_back(fmt(a.route_breaks.mean(), 1));
  row.push_back(fmt_int(a.total_delivered) + " / " +
                fmt_int(a.total_originated));
  rows_.push_back(std::move(row));
}

void MarkdownSink::on_failure(const FailureRecord& rec) {
  std::string line = "FAILED " + rec.protocol;
  for (const auto& [key, value] : rec.axes) {
    line += " " + key + "=" + value;
  }
  line += " seed=" + std::to_string(rec.seed) +
          " attempts=" + std::to_string(rec.attempts) + " [" + rec.kind +
          "]: " + rec.error;
  failure_lines_.push_back(std::move(line));
}

void MarkdownSink::end() {
  std::vector<std::string> headers;
  headers.push_back("protocol");
  for (const std::string& key : axis_keys_) headers.push_back(key);
  headers.insert(headers.end(),
                 {"seeds", "PDR", "delay ms", "hops", "ctrl+hello/deliv",
                  "collision frac", "route breaks", "delivered/originated"});
  Table table(std::move(headers));
  for (auto& row : rows_) table.add_row(std::move(row));
  table.print(out_);
  // Failures go after the table so a clean sweep prints exactly the classic
  // output; a dirty one still shows every healthy row.
  for (const std::string& line : failure_lines_) out_ << line << '\n';
}

// ------------------------------------------------------------------ csv ---

void CsvSink::begin(const std::vector<std::string>& axis_keys) {
  axis_keys_ = axis_keys;
  out_ << "protocol";
  for (const std::string& key : axis_keys_) out_ << ',' << key;
  out_ << ",seeds,pdr_mean,pdr_ci95,delay_ms_mean,hops_mean,"
          "control_per_delivered,collision_fraction,reachable_fraction,"
          "route_breaks_mean,discoveries_mean,originated,delivered,"
          "config_digest\n";
}

void CsvSink::on_failure(const FailureRecord& rec) {
  // Comment line, not a data row: parsers that split on ',' and skip '#'
  // keep working, and a clean sweep emits no extra bytes at all.
  out_ << "# failed," << rec.protocol;
  for (const auto& [key, value] : rec.axes) {
    (void)key;
    out_ << ',' << value;
  }
  out_ << ',' << rec.seed << ',' << rec.kind << ',' << rec.error << '\n';
}

void CsvSink::on_aggregate(const AggregateRecord& rec) {
  const AggregateReport& a = rec.agg;
  out_ << rec.protocol;
  for (const auto& [key, value] : rec.axes) {
    (void)key;
    out_ << ',' << value;
  }
  out_ << ',' << a.runs.size() << ',' << num(a.pdr.mean()) << ','
       << num(a.pdr.ci95_half_width()) << ',' << num(a.delay_ms.mean()) << ','
       << num(a.hops.mean()) << ',' << num(a.control_per_delivered.mean())
       << ',' << num(a.collision_fraction.mean()) << ','
       << num(a.reachable_fraction.mean()) << ',' << num(a.route_breaks.mean())
       << ',' << num(a.discoveries.mean()) << ',' << a.total_originated << ','
       << a.total_delivered << ',' << rec.config_digest << '\n';
}

// ---------------------------------------------------------------- jsonl ---

namespace {

void write_axes(std::ostream& out,
                const std::vector<std::pair<std::string, std::string>>& axes) {
  out << "{";
  bool first = true;
  for (const auto& [key, value] : axes) {
    if (!first) out << ",";
    first = false;
    out << '"' << json_escape(key) << "\":\"" << json_escape(value) << '"';
  }
  out << "}";
}

}  // namespace

void JsonlSink::on_run(const RunRecord& rec) {
  if (!include_runs_) return;
  const ScenarioReport& r = rec.report;
  out_ << "{\"type\":\"run\",\"protocol\":\"" << json_escape(rec.protocol)
       << "\",\"axes\":";
  write_axes(out_, rec.axes);
  out_ << ",\"seed\":" << rec.seed << ",\"config_digest\":\""
       << rec.config_digest << "\",\"pdr\":" << num(r.pdr)
       << ",\"delay_ms_mean\":" << num(r.delay_ms_mean)
       << ",\"hops_mean\":" << num(r.hops_mean)
       << ",\"originated\":" << r.originated
       << ",\"delivered\":" << r.delivered
       << ",\"control_frames\":" << r.control_frames
       << ",\"hello_frames\":" << r.hello_frames
       << ",\"data_frames\":" << r.data_frames
       << ",\"receptions_ok\":" << r.receptions_ok
       << ",\"collision_fraction\":" << num(r.collision_fraction)
       << ",\"reachable_fraction\":" << num(r.reachable_fraction)
       << ",\"route_breaks\":" << r.route_breaks
       << ",\"discoveries\":" << r.discoveries;
  // Throughput fields only exist on profiled runs (ExperimentSpec::profile):
  // an unprofiled sweep's JSONL stays byte-identical to historical output.
  if (rec.profiled) {
    out_ << ",\"wall_s\":" << num(rec.wall_s)
         << ",\"events_dispatched\":" << rec.events_dispatched
         << ",\"events_per_sec\":" << num(rec.events_per_sec());
  }
  out_ << "}\n";
}

void JsonlSink::on_failure(const FailureRecord& rec) {
  out_ << "{\"type\":\"failure\",\"protocol\":\"" << json_escape(rec.protocol)
       << "\",\"axes\":";
  write_axes(out_, rec.axes);
  out_ << ",\"seed\":" << rec.seed << ",\"last_seed\":" << rec.last_seed
       << ",\"attempts\":" << rec.attempts << ",\"kind\":\""
       << json_escape(rec.kind) << "\",\"error\":\"" << json_escape(rec.error)
       << "\"}\n";
}

void JsonlSink::on_aggregate(const AggregateRecord& rec) {
  const AggregateReport& a = rec.agg;
  out_ << "{\"type\":\"aggregate\",\"protocol\":\"" << json_escape(rec.protocol)
       << "\",\"axes\":";
  write_axes(out_, rec.axes);
  out_ << ",\"seeds\":" << a.runs.size() << ",\"config_digest\":\""
       << rec.config_digest << "\",\"pdr_mean\":" << num(a.pdr.mean())
       << ",\"pdr_ci95\":" << num(a.pdr.ci95_half_width())
       << ",\"delay_ms_mean\":" << num(a.delay_ms.mean())
       << ",\"hops_mean\":" << num(a.hops.mean())
       << ",\"control_per_delivered\":" << num(a.control_per_delivered.mean())
       << ",\"collision_fraction\":" << num(a.collision_fraction.mean())
       << ",\"reachable_fraction\":" << num(a.reachable_fraction.mean())
       << ",\"route_breaks_mean\":" << num(a.route_breaks.mean())
       << ",\"discoveries_mean\":" << num(a.discoveries.mean())
       << ",\"originated\":" << a.total_originated
       << ",\"delivered\":" << a.total_delivered;
  // Only mention failures when there are any — a healthy sweep's JSONL is
  // byte-identical to pre-fault-capture output.
  if (rec.failed_runs > 0) out_ << ",\"failed_runs\":" << rec.failed_runs;
  if (rec.profiled) {
    out_ << ",\"wall_s_mean\":" << num(rec.wall_s.mean())
         << ",\"events_per_sec_mean\":" << num(rec.events_per_sec.mean());
  }
  out_ << "}\n";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace vanet::sim
