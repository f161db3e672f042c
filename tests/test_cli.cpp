// vanet_cli flag parsing, end to end through the built binary: an unknown
// flag or config key is a usage error (exit 2) before any run starts.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string out;  ///< stdout and stderr
};

CliResult run_cli(const std::string& args) {
  const std::string cmd = std::string{VANET_CLI} + " " + args + " 2>&1";
  CliResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 256> buf{};
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) {
    result.out += buf.data();
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

TEST(Cli, RemovedShardOptionsAreUsageErrors) {
  // The region-sharded engine is gone: its flag and keys must fail loudly
  // instead of silently running the serial engine.
  const CliResult flag = run_cli("run --shards 4");
  EXPECT_EQ(flag.exit_code, 2) << flag.out;
  EXPECT_NE(flag.out.find("unknown option '--shards'"), std::string::npos)
      << flag.out;
  const CliResult key = run_cli("run --set scenario.shards=2");
  EXPECT_EQ(key.exit_code, 2) << key.out;
  EXPECT_NE(key.out.find("unknown config key 'scenario.shards'"),
            std::string::npos)
      << key.out;
}

TEST(Cli, HighwayValuesTheModelCannotBuildAreUsageErrors) {
  // Each of these used to abort inside the highway model (exit 134).
  for (const char* kv :
       {"highway.lanes_per_direction=0", "highway.lanes_per_direction=-1",
        "highway.length=0", "highway.length=-100",
        "highway.idm.desired_speed_stddev=-1"}) {
    const CliResult r = run_cli(std::string{"run --duration 15 --set "} + kv);
    EXPECT_EQ(r.exit_code, 2) << kv << "\n" << r.out;
    const std::string key{kv, std::string{kv}.find('=')};
    EXPECT_NE(r.out.find("config key '" + key + "'"), std::string::npos)
        << r.out;
  }
}

TEST(Cli, ValuesTheRadioMacHelloAndLatticeAssertAgainstAreUsageErrors) {
  // Each of these used to abort the process (exit 134).
  for (const char* kv :
       {"comm_range_m=0", "comm_range_m=-5", "net.bitrate_bps=0",
        "net.contention_window=0", "net.interference_range_factor=0.5",
        "hello.jitter_fraction=-1", "hello.jitter_fraction=5",
        "manhattan.block=0", "manhattan.streets_x=0"}) {
    const CliResult r = run_cli(
        std::string{"run --duration 8 --vehicles 20 --seeds 1 --protocols "
                    "greedy --mobility manhattan --set "} +
        kv);
    EXPECT_EQ(r.exit_code, 2) << kv << "\n" << r.out;
    const std::string key{kv, std::string{kv}.find('=')};
    EXPECT_NE(r.out.find("config key '" + key + "'"), std::string::npos)
        << r.out;
  }
  // One street each way is too few for the Manhattan model: a failed run,
  // not an abort. Graph mobility drives a one-street lattice fine.
  const std::string one_street =
      "run --duration 8 --vehicles 20 --seeds 1 --protocols greedy "
      "--set manhattan.streets_x=1 --mobility ";
  const CliResult manhattan = run_cli(one_street + "manhattan");
  EXPECT_EQ(manhattan.exit_code, 1) << manhattan.out;
  EXPECT_NE(manhattan.out.find("manhattan.streets_x"), std::string::npos)
      << manhattan.out;
  const CliResult graph = run_cli(one_street + "graph");
  EXPECT_EQ(graph.exit_code, 0) << graph.out;
}

TEST(Cli, RadioAndInfrastructureFlagsHoldTheConfigBounds) {
  // --range 0/-5 used to abort in the propagation model (exit 134); negative
  // RSU and bus counts used to run. Each flag goes through its config key.
  const std::string base =
      "run --duration 8 --vehicles 20 --seeds 1 --protocols greedy "
      "--mobility manhattan ";
  for (const auto& [args, key] :
       std::vector<std::pair<std::string, std::string>>{
           {"--range 0", "comm_range_m"},
           {"--range -5", "comm_range_m"},
           {"--range abc", "comm_range_m"},
           {"--rsus -1", "rsu_count"},
           {"--buses -3", "bus_count"},
           {"--set rsu_count=-1", "rsu_count"},
           {"--set bus_count=-1", "bus_count"}}) {
    const CliResult r = run_cli(base + args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.out;
    EXPECT_NE(r.out.find("config key '" + key + "'"), std::string::npos)
        << args << "\n" << r.out;
  }
  const CliResult ok = run_cli(base + "--range 200 --rsus 0 --buses 2");
  EXPECT_EQ(ok.exit_code, 0) << ok.out;
}

TEST(Cli, PhysicallyMeaninglessValuesAreUsageErrors) {
  // Each of these used to run and exit 0: a negative duration with an
  // all-zero report, an unbounded desired speed, carriageways a kilometre
  // apart the wrong way, a MAC queue that holds no frame.
  const std::string base =
      "run --duration 2 --vehicles 10 --seeds 1 --mobility highway "
      "--set traffic.start_s=0.2 --set traffic.stop_s=1.8 ";
  for (const auto& [args, key] :
       std::vector<std::pair<std::string, std::string>>{
           {"--duration -1", "duration_s"},
           {"--duration 0", "duration_s"},
           {"--set highway.idm.desired_speed=1e308",
            "highway.idm.desired_speed"},
           {"--set highway.idm.desired_speed=-1e9",
            "highway.idm.desired_speed"},
           {"--set highway.idm.time_headway=-1", "highway.idm.time_headway"},
           {"--set highway.idm.max_accel=0", "highway.idm.max_accel"},
           {"--set highway.lane_width=0", "highway.lane_width"},
           {"--set highway.median_gap=-1e9", "highway.median_gap"},
           {"--set net.queue_capacity=0", "net.queue_capacity"},
           {"--set net.unicast_retry_limit=-1", "net.unicast_retry_limit"}}) {
    const CliResult r = run_cli(base + args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.out;
    EXPECT_NE(r.out.find("config key '" + key + "'"), std::string::npos)
        << args << "\n" << r.out;
  }
}

TEST(Cli, GuardFlagsAtTheirExtremes) {
  // There is no `--retries`: a retried run printed another seed's numbers
  // under the requested seed. A timeout past the clock's range is no
  // deadline (it used to fail every run as a watchdog timeout).
  const std::string base =
      "run --duration 2 --vehicles 10 --seeds 1 --mobility highway "
      "--set traffic.start_s=0.2 --set traffic.stop_s=1.8 ";
  for (const char* retries : {"--retries 2147483647", "--retries 1000"}) {
    const CliResult r = run_cli(base + retries);
    EXPECT_EQ(r.exit_code, 2) << retries << "\n" << r.out;
    EXPECT_NE(r.out.find("unknown option '--retries'"), std::string::npos)
        << r.out;
  }
  // Long enough for the watchdog's poll every 1024 events to fire.
  const CliResult bounded =
      run_cli("run --duration 30 --vehicles 60 --seeds 1 --timeout 1e10");
  EXPECT_EQ(bounded.exit_code, 0) << bounded.out;
}

TEST(Cli, CommandLinesThatAbortedOrHungFailCleanly) {
  // Each of these aborted on a VANET_ASSERT (exit 134) or never finished.
  // A value outside its key's bound is a usage error (exit 2); a config no
  // single key rejects is a failure row (exit 1). Either way the key is named.
  const std::string base =
      "run --duration 8 --vehicles 20 --seeds 1 --protocols aodv "
      "--mobility graph ";
  for (const auto& [args, key] :
       std::vector<std::pair<std::string, std::string>>{
           {"--set traffic.rate_pps=1e9", "traffic.rate_pps"},
           {"--set traffic.stop_s=1e9", "traffic.stop_s"},
           {"--set duration_s=1e9", "duration_s"},
           {"--set graph.replan_prob=-1", "graph.replan_prob"},
           {"--set graph.replan_prob=1e9", "graph.replan_prob"},
           {"--set graph.speed_stddev=-1", "graph.speed_stddev"},
           {"--mobility manhattan --set manhattan.speed_stddev=-1",
            "manhattan.speed_stddev"},
           {"--set manhattan.block=1e308", "manhattan.block"},
           {"--mobility highway --set highway.length=1e308", "highway.length"},
           {"--vehicles 1", "vehicles"},
           {"--set traffic.rate_pps=1e308", "traffic.rate_pps"},
           {"--rate 1e308", "traffic.rate_pps"},
           {"--set net.slot_time_s=-1", "net.slot_time_s"},
           {"--set yan_tickets=-5", "yan_tickets"},
           {"--set rsu_count=4 --set net.backbone_delay_s=-1",
            "net.backbone_delay_s"},
           {"--set highway.lane_change_prob=5", "highway.lane_change_prob"},
           {"--mobility manhattan --set manhattan.turn_prob_left=-3",
            "manhattan.turn_prob_left"}}) {
    const CliResult r = run_cli(base + args);
    EXPECT_TRUE(r.exit_code == 1 || r.exit_code == 2)
        << args << ": exit " << r.exit_code << "\n" << r.out;
    EXPECT_NE(r.out.find(key), std::string::npos) << args << "\n" << r.out;
  }
}

TEST(Cli, EveryFlagTakesHostileValuesWithoutAborting) {
  // Every flag --help lists, with each hostile value as its argument, after
  // a base that runs a tiny scenario: exit 0 (ran), 1 (failure rows) or 2
  // (usage error) — never an abort or a hang.
  const CliResult help = run_cli("--help");
  ASSERT_EQ(help.exit_code, 0) << help.out;
  std::set<std::string> flags;
  for (std::size_t at = help.out.find("--"); at != std::string::npos;
       at = help.out.find("--", at + 2)) {
    const std::size_t end =
        help.out.find_first_not_of("abcdefghijklmnopqrstuvwxyz-", at + 2);
    if (end > at + 2) flags.insert(help.out.substr(at, end - at));
  }
  ASSERT_GT(flags.size(), 20u) << help.out;
  const std::string base =
      "run --duration 2 --vehicles 10 --seeds 1 --flows 2 --mobility graph "
      "--set traffic.start_s=0.2 --set traffic.stop_s=1.8 --max-events 300000 ";
  const CliResult healthy = run_cli(base);
  ASSERT_EQ(healthy.exit_code, 0) << healthy.out;
  for (const std::string& flag : flags) {
    for (const char* value : {"0", "-1", "1e9", "1e308", "nan", "", "x"}) {
      const std::string args = base + flag + " '" + value + "'";
      const CliResult r = run_cli(args);
      EXPECT_TRUE(r.exit_code >= 0 && r.exit_code <= 2)
          << args << ": exit " << r.exit_code << "\n" << r.out;
    }
  }
}

}  // namespace
