#include "routing/linkquality/link_quality.h"

#include <algorithm>
#include <bit>

#include "core/assert.h"

namespace vanet::routing {

LinkQualityTable::LinkQualityTable(EtxConfig cfg) : cfg_{cfg} {
  VANET_ASSERT_MSG(cfg_.window >= 1 && cfg_.window <= 64,
                   "etx.window must be in [1, 64]");
  VANET_ASSERT_MSG(cfg_.hello_weight > 0.0 && cfg_.hello_weight <= 1.0,
                   "etx.hello_weight must be in (0, 1]");
}

const LinkQualityTable::Link* LinkQualityTable::find(
    net::NodeId neighbor) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), neighbor);
  if (it == ids_.end() || *it != neighbor) return nullptr;
  return &links_[static_cast<std::size_t>(it - ids_.begin())];
}

LinkQualityTable::Link& LinkQualityTable::find_or_insert(net::NodeId neighbor) {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), neighbor);
  const auto at = it - ids_.begin();
  if (it == ids_.end() || *it != neighbor) {
    ids_.insert(it, neighbor);
    links_.insert(links_.begin() + at, Link{});
  }
  return links_[static_cast<std::size_t>(at)];
}

void LinkQualityTable::on_hello(net::NodeId from, std::uint32_t seq) {
  Link& link = find_or_insert(from);
  if (link.heard == 0) {
    link.window_bits = 1;
    // First contact anchors the ratio baseline: beacons the neighbor sent
    // before we could possibly hear it (out of range, or this entry was
    // erased and re-admitted) are not held against the link.
    link.first_seq = seq;
    link.last_seq = seq;
  } else if (seq > link.last_seq) {
    const std::uint32_t gap = seq - link.last_seq;
    link.window_bits = gap >= 64 ? 0 : link.window_bits << gap;
    link.window_bits |= 1;
    link.last_seq = seq;
  } else {
    // Out-of-order or duplicate (possible after a sender restart): mark the
    // slot if it is still inside the window, never move the window back.
    const std::uint32_t age = link.last_seq - seq;
    if (age < 64) link.window_bits |= std::uint64_t{1} << age;
  }
  link.heard += 1;
  const double fresh = windowed_ratio(link);
  link.smoothed = link.heard == 1
                      ? fresh
                      : cfg_.hello_weight * fresh +
                            (1.0 - cfg_.hello_weight) * link.smoothed;
}

void LinkQualityTable::on_report(net::NodeId from, double ratio) {
  Link& link = find_or_insert(from);
  link.reported = std::clamp(ratio, 0.0, 1.0);
  link.has_report = true;
}

void LinkQualityTable::erase(net::NodeId neighbor) {
  const Link* link = find(neighbor);
  if (link == nullptr) return;
  const auto at = link - links_.data();
  ids_.erase(ids_.begin() + at);
  links_.erase(links_.begin() + at);
}

double LinkQualityTable::windowed_ratio(const Link& link) const {
  // The denominator ramps 1, 2, ... from first contact until the window
  // fills, so exactly k received of the last n=denominator beacons gives
  // k/n, exactly. (For a neighbor heard from its seq 0 this is the full
  // send count, since sender sequences start at 0.)
  const std::uint64_t denom = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(cfg_.window),
      static_cast<std::uint64_t>(link.last_seq - link.first_seq) + 1);
  const std::uint64_t mask =
      cfg_.window >= 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << cfg_.window) - 1;
  const auto got = static_cast<std::uint64_t>(
      std::popcount(link.window_bits & mask));
  return static_cast<double>(std::min(got, denom)) /
         static_cast<double>(denom);
}

double LinkQualityTable::reverse_ratio(net::NodeId neighbor) const {
  const Link* link = find(neighbor);
  if (link == nullptr || link->heard == 0) return 0.0;
  return cfg_.hello_weight >= 1.0 ? windowed_ratio(*link) : link->smoothed;
}

double LinkQualityTable::forward_ratio(net::NodeId neighbor) const {
  const Link* link = find(neighbor);
  if (link == nullptr) return 0.0;
  return link->has_report ? link->reported : 1.0;
}

double LinkQualityTable::etx(net::NodeId neighbor) const {
  const double df = forward_ratio(neighbor);
  const double dr = reverse_ratio(neighbor);
  const double product = df * dr;
  if (product <= 1.0 / kMaxEtx) return kMaxEtx;
  return 1.0 / product;
}

double LinkQualityTable::long_run_ratio(net::NodeId neighbor) const {
  const Link* link = find(neighbor);
  if (link == nullptr || link->heard == 0) return 0.0;
  const auto sent = static_cast<double>(link->last_seq - link->first_seq) + 1.0;
  return std::min(1.0, static_cast<double>(link->heard) / sent);
}

}  // namespace vanet::routing
