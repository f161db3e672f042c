// Yan's probe ranking (rank_probe_candidates) against a copy of the eager
// ranking it replaced, which scored every neighbor before splitting them
// into forward candidates and sideways fallback. The lazy ranking must
// return the same list and must not score a sideways neighbor unless the
// fallback is read.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "core/rng.h"
#include "routing/probability/yan.h"

namespace vanet::routing {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// A neighbor table with the progress and score each row evaluates to.
struct Table {
  std::vector<net::NeighborInfo> rows;
  std::map<net::NodeId, double> progress;
  std::map<net::NodeId, double> score;
  net::NodeId skip_a = 1000;
  net::NodeId skip_b = 1001;

  void add(net::NodeId id, double progress_m, double duration_s) {
    net::NeighborInfo row;
    row.id = id;
    rows.push_back(row);
    progress[id] = progress_m;
    score[id] = duration_s;
  }
  bool excluded(net::NodeId id) const { return id == skip_a || id == skip_b; }
  bool forward(net::NodeId id) const { return progress.at(id) > 1.0; }
  /// True when some forward candidate survives the duration cut.
  bool forward_qualifies() const {
    for (const auto& row : rows) {
      if (!excluded(row.id) && forward(row.id) && !(score.at(row.id) <= 0.5)) {
        return true;
      }
    }
    return false;
  }
};

/// The ranking as forward_rreq computed it before scoring became lazy.
template <typename Progress, typename Score>
std::vector<ProbeCandidate> eager_rank(
    const std::vector<net::NeighborInfo>& rows, net::NodeId skip_a,
    net::NodeId skip_b, Progress&& progress, Score&& score) {
  std::vector<ProbeCandidate> candidates;
  std::vector<ProbeCandidate> fallback;
  for (const auto& nbr : rows) {
    if (nbr.id == skip_a || nbr.id == skip_b) continue;
    const double d = score(nbr);
    if (d <= 0.5) continue;
    const double progress_m = progress(nbr);
    (progress_m > 1.0 ? candidates : fallback).push_back({nbr.id, d});
  }
  if (candidates.empty()) candidates = std::move(fallback);
  std::sort(candidates.begin(), candidates.end(),
            [](const ProbeCandidate& a, const ProbeCandidate& b) {
              if (a.duration != b.duration) return a.duration > b.duration;
              return a.id < b.id;
            });
  return candidates;
}

/// Ranks `t` both ways and checks the lazy ranking against the eager one.
void expect_same_ranking(const Table& t) {
  auto progress = [&t](const net::NeighborInfo& nbr) {
    return t.progress.at(nbr.id);
  };
  std::vector<net::NodeId> scored;
  auto lazy_score = [&t, &scored](const net::NeighborInfo& nbr) {
    scored.push_back(nbr.id);
    return t.score.at(nbr.id);
  };
  auto eager_score = [&t](const net::NeighborInfo& nbr) {
    return t.score.at(nbr.id);
  };
  const auto lazy =
      rank_probe_candidates(t.rows, t.skip_a, t.skip_b, progress, lazy_score);
  const auto eager =
      eager_rank(t.rows, t.skip_a, t.skip_b, progress, eager_score);

  ASSERT_EQ(lazy.size(), eager.size());
  for (std::size_t i = 0; i < lazy.size(); ++i) {
    EXPECT_EQ(lazy[i].id, eager[i].id) << "rank " << i;
    EXPECT_EQ(lazy[i].duration, eager[i].duration) << "rank " << i;
  }

  std::vector<net::NodeId> sorted = scored;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "a neighbor was scored twice";
  for (const net::NodeId id : scored) {
    EXPECT_FALSE(t.excluded(id)) << "excluded neighbor " << id << " scored";
  }
  if (t.forward_qualifies()) {
    for (const net::NodeId id : scored) {
      EXPECT_TRUE(t.forward(id))
          << "sideways neighbor " << id
          << " scored although a forward candidate qualifies";
    }
  }
}

TEST(ProbeRanking, NoNeighborsRanksNothing) {
  Table t;
  expect_same_ranking(t);
  EXPECT_TRUE(rank_probe_candidates(
                  t.rows, t.skip_a, t.skip_b,
                  [](const net::NeighborInfo&) { return 5.0; },
                  [](const net::NeighborInfo&) { return 5.0; })
                  .empty());
}

TEST(ProbeRanking, AllSidewaysFallsBackToRankedSideways) {
  Table t;
  t.add(2, 0.5, 3.0);
  t.add(4, -20.0, 9.0);
  t.add(6, 1.0, 0.4);  // exactly 1 m is not progress; too short anyway
  t.add(8, kNaN, 7.0);
  expect_same_ranking(t);
  const auto ranked = rank_probe_candidates(
      t.rows, t.skip_a, t.skip_b,
      [&t](const net::NeighborInfo& n) { return t.progress.at(n.id); },
      [&t](const net::NeighborInfo& n) { return t.score.at(n.id); });
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].id, 4u);
  EXPECT_EQ(ranked[1].id, 8u);  // a NaN progress steps sideways
  EXPECT_EQ(ranked[2].id, 2u);
}

TEST(ProbeRanking, ShortForwardLinksFallBackToSideways) {
  Table t;
  t.add(1, 50.0, 0.5);  // every forward duration is <= 0.5 s
  t.add(3, 80.0, 0.0);
  t.add(5, -10.0, 4.0);
  expect_same_ranking(t);
  // Nothing lasts: no candidate at all, and the caller broadcasts.
  Table none;
  none.add(1, 50.0, 0.5);
  none.add(5, -10.0, 0.2);
  none.add(7, kNaN, 0.0);
  expect_same_ranking(none);
}

TEST(ProbeRanking, EqualDurationsRankByIdAndExcludedIdsNeverQualify) {
  Table t;
  t.add(9, 30.0, 5.0);
  t.add(3, 40.0, 5.0);
  t.add(7, 20.0, 5.0);
  t.add(2, 60.0, 8.0);
  t.add(4, -3.0, 50.0);
  t.skip_a = 2;
  t.skip_b = 9;
  expect_same_ranking(t);
  const auto ranked = rank_probe_candidates(
      t.rows, t.skip_a, t.skip_b,
      [&t](const net::NeighborInfo& n) { return t.progress.at(n.id); },
      [&t](const net::NeighborInfo& n) { return t.score.at(n.id); });
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].id, 3u);
  EXPECT_EQ(ranked[1].id, 7u);
}

TEST(ProbeRanking, RandomTablesMatchTheEagerRanking) {
  core::Rng rng{2010};
  // Few distinct progress and duration values so ties, exact thresholds
  // and NaN progress all come up often.
  const std::vector<double> progress_values = {kNaN, -100.0, 0.0,  0.5,
                                               1.0,  1.5,    20.0, 250.0};
  const std::vector<double> duration_values = {0.0, 0.25, 0.5, 0.75,
                                               3.0, 3.0,  42.0, 600.0};
  int fallbacks = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    Table t;
    const int n = static_cast<int>(rng.uniform_int(0, 12));
    // Some tables have no forward neighbor or no lasting link at all.
    const double p_forward = rng.uniform(0.0, 1.0) < 0.3 ? 0.0 : 0.5;
    const double p_short = rng.uniform(0.0, 1.0) < 0.2 ? 1.0 : 0.3;
    net::NodeId id = 0;
    for (int k = 0; k < n; ++k) {
      id += static_cast<net::NodeId>(rng.uniform_int(1, 4));
      double progress_m = progress_values[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(progress_values.size()) - 1))];
      if (progress_m > 1.0 && !rng.bernoulli(p_forward)) progress_m = -progress_m;
      const double duration_s =
          rng.bernoulli(p_short)
              ? rng.uniform(0.0, 0.5)
              : duration_values[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(duration_values.size()) - 1))];
      t.add(id, progress_m, duration_s);
    }
    // The origin and the previous hop are sometimes in the table, sometimes
    // the same node, sometimes absent.
    if (!t.rows.empty() && rng.bernoulli(0.6)) {
      t.skip_a = t.rows[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(t.rows.size()) - 1))]
                     .id;
    }
    if (!t.rows.empty() && rng.bernoulli(0.6)) {
      t.skip_b = t.rows[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(t.rows.size()) - 1))]
                     .id;
    }
    if (!t.forward_qualifies()) ++fallbacks;
    SCOPED_TRACE("table " + std::to_string(iter));
    expect_same_ranking(t);
    if (HasFailure()) return;
  }
  // Both paths must have been exercised, many times each.
  EXPECT_GT(fallbacks, 400);
  EXPECT_LT(fallbacks, 3600);
}

}  // namespace
}  // namespace vanet::routing
