// vanet_cli flag parsing, end to end through the built binary: an unknown
// flag or config key is a usage error (exit 2) before any run starts.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

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

}  // namespace
