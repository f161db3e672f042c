// E12 — microbenchmarks of the performance-critical primitives
// (google-benchmark): event queue, spatial index, duplicate cache, lifetime
// solvers, survival/expectation integrals, IDM stepping, one MAC broadcast,
// the channel index's per-frame work, the hello layer's neighbor-table
// intake, and the ETX agent's beacon fill (with its Dijkstra rerun) and
// hello intake.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/lifetime_distribution.h"
#include "analysis/link_lifetime.h"
#include "core/event_queue.h"
#include "core/rng.h"
#include "core/simulator.h"
#include "core/spatial_grid.h"
#include "mobility/idm_highway.h"
#include "net/hello.h"
#include "net/network.h"
#include "routing/dup_cache.h"
#include "routing/linkquality/etx_agent.h"

namespace {

using namespace vanet;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    core::EventQueue q;
    core::SimTime now;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      q.schedule(core::SimTime::micros((i * 7919) % 10000),
                 [&sink] { ++sink; });
    }
    while (q.run_next(now)) {
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

// Steady-state schedule->fire throughput with a warm pool: the queue is
// reused across iterations, so this isolates per-event cost from slab growth.
void BM_SchedulerSteadyStateFire(benchmark::State& state) {
  core::EventQueue q;
  core::SimTime now;
  int sink = 0;
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      q.schedule(core::SimTime::micros(t + (i * 7919) % 10000),
                 [&sink] { ++sink; });
    }
    while (q.run_next(now)) {
    }
    t = now.as_micros();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerSteadyStateFire);

// Schedule + cancel churn: the dominant pattern of retry/NAV/timeout timers
// that are armed and then retired before firing. Eager reclamation makes the
// heap depth stay at zero here.
void BM_SchedulerCancelChurn(benchmark::State& state) {
  core::EventQueue q;
  std::vector<core::EventHandle> handles;
  handles.reserve(1000);
  std::int64_t t = 1;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(
          q.schedule(core::SimTime::micros(t + (i * 7919) % 10000), [] {}));
    }
    for (auto& h : handles) h.cancel();
    handles.clear();
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerCancelChurn);

// Schedule/fire cycles while a deep backlog of mixed-horizon timers sits in
// the heap (route lifetimes, discovery timeouts, periodic beacons): measures
// how heap depth taxes the hot pop/push path.
void BM_SchedulerMixedHorizonDepth(benchmark::State& state) {
  const auto depth = static_cast<int>(state.range(0));
  core::EventQueue q;
  core::SimTime now;
  // Long-horizon backlog, never due during the measured window.
  for (int i = 0; i < depth; ++i) {
    q.schedule(core::SimTime::seconds(1e6 + i), [] {});
  }
  int sink = 0;
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 100; ++i) {
      q.schedule(core::SimTime::micros(t + (i * 7919) % 1000),
                 [&sink] { ++sink; });
    }
    for (int i = 0; i < 100; ++i) q.run_next(now);
    t = now.as_micros();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_SchedulerMixedHorizonDepth)->Arg(100)->Arg(1000)->Arg(10000);

// One recurring timer re-arming in place across firings (hello beacons,
// mobility ticks, CBR flows after the schedule_every migration).
void BM_SchedulerRecurringTick(benchmark::State& state) {
  core::EventQueue q;
  core::SimTime now;
  std::uint64_t fired = 0;
  q.schedule_every(core::SimTime::micros(1), core::SimTime::micros(1),
                   [&fired] { ++fired; });
  for (auto _ : state) {
    q.run_next(now);
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerRecurringTick);

/// Reception fan-out's grid query over a moving population: `arg` points
/// drift through a 5 km square (a few escaping it); each iteration moves one
/// point, round-robin, then asks who is within 250 m of another, the way the
/// MAC asks once per finished frame between mobility ticks.
void BM_SpatialGridQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr double kSide = 5000.0;
  core::SpatialGrid grid{250.0, core::Box{{0.0, 0.0}, {kSide, kSide}}};
  core::Rng rng{1};
  std::vector<core::Vec2> pos(n);
  std::vector<core::Vec2> vel(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = {rng.uniform(0.0, kSide), rng.uniform(0.0, kSide)};
    vel[i] = {rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
    grid.insert(static_cast<core::SpatialGrid::Id>(i), pos[i]);
  }
  std::vector<core::SpatialGrid::Id> out;
  std::size_t mover = 0;
  std::size_t asker = n / 2;
  for (auto _ : state) {
    pos[mover] += vel[mover];
    grid.update(static_cast<core::SpatialGrid::Id>(mover), pos[mover]);
    mover = mover + 1 == n ? 0 : mover + 1;
    grid.query_radius_into(pos[asker], 250.0,
                           static_cast<core::SpatialGrid::Id>(asker), out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    asker = (asker + 7919) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpatialGridQuery)->Arg(100)->Arg(1000)->Arg(10000);

/// A relay's duplicate check during floods: a cache of capacity `arg`, kept
/// full, probed 7 times with a recent key (a duplicate) for each fresh key
/// (which evicts the oldest). 40 is a node's share of a route-discovery
/// burst; 4096 is the default capacity.
void BM_DupCacheProbe(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  routing::DupCache cache{capacity};
  std::vector<std::uint64_t> keys(1u << 16);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = routing::DupCache::key(static_cast<std::uint32_t>(i % 977),
                                     static_cast<std::uint32_t>(i), 0);
  }
  std::size_t next = 0;
  for (; next < capacity; ++next) cache.seen_or_insert(keys[next]);
  core::Rng rng{9};
  const auto recent =
      static_cast<std::int64_t>(std::min<std::size_t>(capacity, 32));
  std::vector<std::size_t> back(1024);
  for (auto& b : back) b = static_cast<std::size_t>(rng.uniform_int(1, recent));
  std::size_t k = 0;
  for (auto _ : state) {
    int seen = 0;
    for (int j = 0; j < 7; ++j) {
      seen += cache.seen_or_insert(keys[(next - back[k++ & 1023]) & 0xffff]);
    }
    seen += cache.seen_or_insert(keys[next++ & 0xffff]);
    benchmark::DoNotOptimize(seen);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_DupCacheProbe)->Arg(40)->Arg(4096);

void BM_LinkLifetimeClosedForm(benchmark::State& state) {
  core::Rng rng{2};
  for (auto _ : state) {
    const auto res = analysis::link_lifetime_1d(
        {rng.uniform(0.0, 40.0), rng.uniform(-3.0, 3.0)},
        {rng.uniform(0.0, 40.0), rng.uniform(-3.0, 3.0)},
        rng.uniform(-240.0, 240.0), 250.0, 40.0);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_LinkLifetimeClosedForm);

void BM_LinkLifetime2D(benchmark::State& state) {
  core::Rng rng{3};
  for (auto _ : state) {
    const auto res = analysis::link_lifetime_2d(
        {0.0, 0.0}, {rng.uniform(0.0, 40.0), 0.0}, {0.0, 0.0},
        {rng.uniform(-200.0, 200.0), rng.uniform(-20.0, 20.0)},
        {rng.uniform(-40.0, 40.0), 0.0}, {0.0, 0.0}, 250.0, 120.0, 0.25, 1e-3);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_LinkLifetime2D);

void BM_LifetimeSurvival(benchmark::State& state) {
  const analysis::LinkLifetimeDistribution dist{250.0, 80.0, 4.0, 2.0};
  double t = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.survival(t));
    t += 0.1;
    if (t > 100.0) t = 0.1;
  }
}
BENCHMARK(BM_LifetimeSurvival);

void BM_ExpectedLifetime(benchmark::State& state) {
  const analysis::LinkLifetimeDistribution dist{250.0, 80.0, 1.0, 2.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.expected_lifetime(600.0));
  }
}
BENCHMARK(BM_ExpectedLifetime);

void BM_IdmHighwayStep(benchmark::State& state) {
  mobility::HighwayConfig cfg;
  cfg.length = 4000.0;
  mobility::IdmHighwayModel model{cfg};
  core::Rng rng{4};
  model.populate(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    model.step(0.1, rng);
  }
  state.SetItemsProcessed(state.iterations() * model.vehicles().size());
}
BENCHMARK(BM_IdmHighwayStep)->Arg(40)->Arg(70)->Arg(80)->Arg(500);

void BM_MacBroadcastRound(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::Simulator sim;
    core::RngManager rngs{5};
    net::Network net{sim, nullptr, std::make_unique<net::UnitDiskModel>(250.0),
                     rngs.stream("net")};
    for (int i = 0; i < 30; ++i) {
      net.add_rsu({i * 60.0, 0.0});
    }
    state.ResumeTiming();
    net::Packet p;
    p.kind = net::PacketKind::kData;
    p.size_bytes = 512;
    net.send(0, p);
    sim.run_until(core::SimTime::seconds(1.0));
    benchmark::DoNotOptimize(net.counters().receptions_ok);
  }
}
BENCHMARK(BM_MacBroadcastRound);

/// The channel layer's per-frame work in a steady stream of `arg` frames/ms
/// over a 2 km square (250 m range, frames of 0.1-0.74 ms): the MAC's prune
/// and carrier sense at the frame start, then the collision snapshot and 50
/// receiver probes within range of the sender.
void BM_ChannelFrameEnd(benchmark::State& state) {
  constexpr double kRange = 250.0;
  constexpr std::size_t kStream = 4096;
  const core::SimTime gap = core::SimTime::micros(1000 / state.range(0));
  const core::SimTime longest = core::SimTime::micros(740);
  core::Rng rng{6};
  std::vector<core::Vec2> pos(kStream);
  std::vector<core::SimTime> duration(kStream);
  for (std::size_t i = 0; i < kStream; ++i) {
    pos[i] = {rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)};
    duration[i] = core::SimTime::micros(rng.uniform_int(100, 740));
  }
  std::vector<core::Vec2> probes(50);
  for (auto& p : probes) {
    const double r = kRange * std::sqrt(rng.uniform(0.0, 1.0));
    const double a = rng.uniform(0.0, 6.283185307179586);
    p = {r * std::cos(a), r * std::sin(a)};
  }
  net::ChannelState cs{kRange, core::Box{{0.0, 0.0}, {2000.0, 2000.0}}};
  core::SimTime now{};
  std::size_t i = 0;
  auto frame = [&] {
    now += gap;
    const core::Vec2 at = pos[i % kStream];
    const core::SimTime end = now + duration[i % kStream];
    cs.prune(now - longest);
    benchmark::DoNotOptimize(cs.busy_until(at, now, kRange));
    const auto h = cs.add(static_cast<net::NodeId>(i), now, end, at);
    cs.begin_overlap(now, end, h, at, 2 * kRange);
    int hits = 0;
    for (const core::Vec2 d : probes) hits += cs.overlap_near(at + d, kRange);
    benchmark::DoNotOptimize(hits);
    ++i;
  };
  // Fill the index to its steady-state size before timing.
  for (std::size_t k = 0; k < kStream; ++k) frame();
  for (auto _ : state) frame();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelFrameEnd)->Arg(10)->Arg(50)->Arg(200);

/// One simulated second of hello intake at a node hearing `arg` neighbors:
/// each live neighbor's beacon lands once (a refresh, in no particular id
/// order), a tenth of them fall silent and as many new ids join, and the
/// node's periodic sweep expires those silent past the 3 s expiry. The
/// node's own radio is down, so its beacons stop at the MAC door and the
/// bench times the neighbor table, not the channel.
void BM_HelloIntake(benchmark::State& state) {
  const auto nbrs = static_cast<std::size_t>(state.range(0));
  const std::size_t churn = std::max<std::size_t>(1, nbrs / 10);
  core::Simulator sim;
  core::RngManager rngs{12};
  net::Network net{sim, nullptr, std::make_unique<net::UnitDiskModel>(250.0),
                   rngs.stream("net")};
  const net::NodeId self = net.add_rsu({0.0, 0.0});
  net.set_node_up(self, false);
  net::HelloService hello{net, rngs.stream("hello")};
  hello.start({self});
  core::Rng rng{13};
  auto fresh_id = [&rng] {
    return static_cast<net::NodeId>(rng.uniform_int(1, 1000000));
  };
  std::vector<net::NodeId> live(nbrs);
  for (auto& id : live) id = fresh_id();
  net::Packet p;
  p.kind = net::PacketKind::kHello;
  p.header = std::make_shared<net::HelloHeader>();
  core::SimTime now{};
  for (auto _ : state) {
    for (const net::NodeId id : live) {
      p.origin = id;
      hello.on_frame(self, p);
    }
    for (std::size_t k = 0; k < churn; ++k) {
      live[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(nbrs) - 1))] = fresh_id();
    }
    now += core::SimTime::seconds(1.0);
    sim.run_until(now);  // the sweep (and the dropped beacon)
  }
  benchmark::DoNotOptimize(hello.table(self).size());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(nbrs));
}
BENCHMARK(BM_HelloIntake)->Arg(10)->Arg(50)->Arg(200);

/// Hellos from neighbors 1..nbrs, each a clean link reporting this node and
/// advertising `advert_len` routes: itself, then a shared block of distant
/// destinations at neighbor-dependent costs (so Dijkstra relaxes, and
/// sometimes improves, every destination through every neighbor).
std::vector<net::HelloHeader> etx_hellos(int nbrs, int advert_len) {
  std::vector<net::HelloHeader> out(static_cast<std::size_t>(nbrs));
  for (int k = 0; k < nbrs; ++k) {
    net::HelloHeader& h = out[static_cast<std::size_t>(k)];
    const auto self = static_cast<net::NodeId>(k + 1);
    h.links.push_back({0, 1.0});
    h.routes.push_back({.dst = self, .seq = 2, .dist = 0.0});
    for (int j = 1; j < advert_len; ++j) {
      h.routes.push_back(
          {.dst = static_cast<net::NodeId>(nbrs + j),
           .seq = 2,
           .dist = 1.0 + 0.25 * static_cast<double>((j * 7 + k) % 13)});
    }
  }
  return out;
}

net::Packet etx_hello_packet(int neighbor) {
  net::Packet p;
  p.kind = net::PacketKind::kHello;
  p.origin = static_cast<net::NodeId>(neighbor);
  p.tx = p.origin;
  return p;
}

/// An agent that has heard every neighbor's hello once.
void feed_etx_hellos(routing::EtxAgent& agent,
                     std::vector<net::HelloHeader>& hellos) {
  for (std::size_t k = 0; k < hellos.size(); ++k) {
    agent.on_hello(etx_hello_packet(static_cast<int>(k) + 1), hellos[k]);
    hellos[k].seq += 1;
  }
}

// One outgoing ETX beacon: link reports, the Dijkstra rerun a fresh advert
// forces, and the distance-vector dump. Args: neighbors, advert length.
void BM_EtxFillBeacon(benchmark::State& state) {
  const auto nbrs = static_cast<int>(state.range(0));
  auto hellos = etx_hellos(nbrs, static_cast<int>(state.range(1)));
  routing::EtxAgent agent{0, {}};
  feed_etx_hellos(agent, hellos);
  std::size_t k = 0;
  for (auto _ : state) {
    state.PauseTiming();  // one advert intake makes the routes dirty
    agent.on_hello(etx_hello_packet(static_cast<int>(k) + 1), hellos[k]);
    hellos[k].seq += 1;
    k = (k + 1) % hellos.size();
    state.ResumeTiming();
    net::HelloHeader out;
    benchmark::DoNotOptimize(agent.fill_beacon(out));
    benchmark::DoNotOptimize(out.routes.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EtxFillBeacon)->ArgsProduct({{10, 40}, {200, 1000}});

// One received ETX hello: estimator update and advert intake (routes are
// recomputed lazily, on the next beacon or lookup). Args as above.
void BM_EtxOnHello(benchmark::State& state) {
  const auto nbrs = static_cast<int>(state.range(0));
  auto hellos = etx_hellos(nbrs, static_cast<int>(state.range(1)));
  routing::EtxAgent agent{0, {}};
  feed_etx_hellos(agent, hellos);
  std::size_t k = 0;
  for (auto _ : state) {
    agent.on_hello(etx_hello_packet(static_cast<int>(k) + 1), hellos[k]);
    benchmark::ClobberMemory();
    hellos[k].seq += 1;
    k = (k + 1) % hellos.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EtxOnHello)->ArgsProduct({{10, 40}, {200, 1000}});

}  // namespace

BENCHMARK_MAIN();
