// vanet_cli flag parsing, end to end through the built binary: flags that
// mirror a config key parse through sim::config_set, and a bad value is a
// usage error (exit 2) before any run starts.
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

TEST(Cli, ShardFlagsRejectBadValuesAsUsageErrors) {
  for (const char* args :
       {"run --shards 0", "run --shards x", "run --shards -2",
        "run --shard-threads -1", "run --shard-threads many"}) {
    const CliResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.out;
    EXPECT_NE(r.out.find("vanet_cli: --shard"), std::string::npos)
        << args << "\n" << r.out;
  }
}

/// The `--keys` table cell after `key`, trimmed ("" when the key is absent).
std::string key_value(const std::string& table, const std::string& key) {
  const std::size_t at = table.find("| " + key + " ");
  if (at == std::string::npos) return "";
  const std::size_t start = table.find('|', at + 1) + 1;
  const std::size_t end = table.find('|', start);
  const std::string cell = table.substr(start, end - start);
  const std::size_t first = cell.find_first_not_of(' ');
  return cell.substr(first, cell.find_last_not_of(' ') - first + 1);
}

TEST(Cli, ShardFlagsSetTheirConfigKeys) {
  const CliResult r = run_cli("--shards auto --shard-threads 3 --keys");
  ASSERT_EQ(r.exit_code, 0) << r.out;
  EXPECT_EQ(key_value(r.out, "scenario.shards"), "auto") << r.out;
  EXPECT_EQ(key_value(r.out, "scenario.shard_threads"), "3") << r.out;
}

}  // namespace
