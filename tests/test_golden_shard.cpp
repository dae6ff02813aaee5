// Process-level golden pins for the rv_batch front-end — the
// acceptance harness of the sharded engine:
//
//  * the single-process CSV, JSON and table of every built-in set are
//    pinned byte for byte under tests/golden/rv_batch/;
//  * running the same set as 2 and as 3 shard *processes*, persisting
//    each shard's outcomes to a cache file and merging, must reproduce
//    those exact bytes (all cache hits, nothing recomputed);
//  * a cold-cache run followed by a warm-cache run must report
//    all-hits (enforced in-process by --require-all-hits) and emit
//    identical bytes;
//  * the fork-based `--procs P` local mode must match too.
//
// Regenerate intentionally changed pins with RV_UPDATE_GOLDEN=1 (see
// golden.hpp); the built-in set declarations are the examples/sets/
// files (engine/set_registry.hpp) and are part of the pinned surface.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <utility>
#include <vector>

#include "golden.hpp"

namespace {

namespace fs = std::filesystem;
namespace golden = rv::golden;

/// Directory holding the built binaries (the build tree root).
fs::path build_dir() {
#ifdef RV_BENCH_DIR
  return fs::path(RV_BENCH_DIR);
#else
  return fs::current_path();
#endif
}

fs::path rv_batch_binary() { return build_dir() / "rv_batch"; }

/// Runs `cmd` through the shell, returning captured stdout; fails the
/// test (and returns nullopt) on spawn failure or non-zero exit.
std::optional<std::string> run_and_capture(const std::string& cmd) {
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << cmd;
    return std::nullopt;
  }
  std::string out;
  char buffer[4096];
  std::size_t n;
  while ((n = fread(buffer, 1, sizeof buffer, pipe)) > 0) out.append(buffer, n);
  const int status = pclose(pipe);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    ADD_FAILURE() << "command failed (status " << status << "): " << cmd;
    return std::nullopt;
  }
  return out;
}

/// Scratch directory removed on every exit path.
struct Scratch {
  fs::path path;
  Scratch() {
    std::string buffer =
        (fs::temp_directory_path() / "rv_golden_batch_XXXXXX").string();
    EXPECT_NE(mkdtemp(buffer.data()), nullptr) << "mkdtemp failed";
    path = buffer;
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::string batch_cmd(const std::string& args) {
  std::string cmd = "'";
  cmd.append(rv_batch_binary().string()).append("' ").append(args);
  return cmd;
}

class GoldenBatchSet : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (!fs::exists(rv_batch_binary())) {
      GTEST_SKIP() << rv_batch_binary()
                   << " not built (RV_BUILD_TOOLS=OFF?)";
    }
  }
};

TEST_P(GoldenBatchSet, SingleProcessCsvMatchesPin) {
  const std::string set = GetParam();
  const auto out = run_and_capture(batch_cmd("run --set " + set));
  if (out.has_value()) {
    golden::compare(*out, "rv_batch/" + set + ".csv");
  }
}

TEST_P(GoldenBatchSet, ShardedProcessesMergeToTheExactSingleProcessBytes) {
  const std::string set = GetParam();
  const auto single = run_and_capture(batch_cmd("run --set " + set));
  ASSERT_TRUE(single.has_value());

  for (const int num_shards : {2, 3}) {
    Scratch scratch;
    const std::string dir = (scratch.path / "cache").string();
    for (int s = 0; s < num_shards; ++s) {
      // Each shard is its own process; its stdout (the partial
      // document) is irrelevant here — only the persisted cache file
      // crosses the process boundary.
      const auto shard_out = run_and_capture(
          batch_cmd("run --set " + set + " --shard " + std::to_string(s) +
                    "/" + std::to_string(num_shards) + " --cache-dir '" +
                    dir + "' >/dev/null && echo ok"));
      ASSERT_TRUE(shard_out.has_value()) << "shard " << s;
    }
    // The merge process replays every outcome from the shard files:
    // --require-all-hits turns any recomputation into a hard failure.
    const auto merged = run_and_capture(batch_cmd(
        "merge --set " + set + " --cache-dir '" + dir +
        "' --require-all-hits"));
    ASSERT_TRUE(merged.has_value()) << num_shards << " shards";
    EXPECT_EQ(*merged, *single)
        << set << " split over " << num_shards
        << " processes must merge to the single-process bytes";
  }
}

TEST_P(GoldenBatchSet, ColdThenWarmCacheRunsAreAllHitsAndIdentical) {
  const std::string set = GetParam();
  Scratch scratch;
  const std::string dir = (scratch.path / "cache").string();
  const auto cold = run_and_capture(
      batch_cmd("run --set " + set + " --cache-dir '" + dir + "'"));
  // The warm run must replay every outcome from the persisted file —
  // --require-all-hits makes a miss a non-zero exit, which
  // run_and_capture reports as a failure.
  const auto warm = run_and_capture(
      batch_cmd("run --set " + set + " --cache-dir '" + dir +
                "' --require-all-hits"));
  ASSERT_TRUE(cold.has_value());
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(*cold, *warm) << "warm-cache bytes drifted for " << set;
}

INSTANTIATE_TEST_SUITE_P(
    BuiltinSets, GoldenBatchSet,
    ::testing::Values("rendezvous-grid", "search-ring", "gather-fleet",
                      "linear-line", "coverage-disk"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(GoldenBatch, ForkedProcsModeMatchesSingleProcessBytes) {
  if (!fs::exists(rv_batch_binary())) {
    GTEST_SKIP() << rv_batch_binary() << " not built";
  }
  const std::string set = "search-ring";
  const auto single = run_and_capture(batch_cmd("run --set " + set));
  Scratch scratch;
  const auto forked = run_and_capture(
      batch_cmd("run --set " + set + " --procs 2 --cache-dir '" +
                (scratch.path / "cache").string() + "' --require-all-hits"));
  ASSERT_TRUE(single.has_value());
  ASSERT_TRUE(forked.has_value());
  EXPECT_EQ(*forked, *single);
}

// ---------------------------------------------------------------------------
// Chaos pins: failpoint-armed shard runs (engine/failpoint.hpp) under
// the supervisor must either recover to the exact fault-free bytes or
// degrade with a documented exit code and coverage report.  The specs
// ride in on RV_FAILPOINTS, so only the rv_batch child processes are
// armed — this test binary never is.
// ---------------------------------------------------------------------------

struct RunStatus {
  int code = -1;       ///< process exit code (-1: spawn failure/signal)
  std::string stdout_text;
};

/// Like run_and_capture, but returns the exit code instead of failing
/// on it — chaos cases assert specific nonzero codes.
RunStatus run_status(const std::string& cmd) {
  RunStatus result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << cmd;
    return result;
  }
  char buffer[4096];
  std::size_t n;
  while ((n = fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.stdout_text.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.code = WEXITSTATUS(status);
  return result;
}

class GoldenBatchChaos : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fs::exists(rv_batch_binary())) {
      GTEST_SKIP() << rv_batch_binary() << " not built";
    }
  }
};

TEST_F(GoldenBatchChaos, CrashedShardIsRetriedToFaultFreeBytes) {
  const auto single = run_and_capture(batch_cmd("run --set linear-line"));
  ASSERT_TRUE(single.has_value());
  Scratch scratch;
  // Shard 1's worker crashes on its first attempt only (limit=1 in the
  // fork-shared counter slab); --retries 2 must re-execute just that
  // shard and the merged document must be byte-identical.
  const RunStatus chaos = run_status(
      "RV_FAILPOINTS='shard.worker.start=crash(87),index=1,limit=1' " +
      batch_cmd("run --set linear-line --procs 3 --retries 2 --backoff-ms 10"
                " --cache-dir '" +
                (scratch.path / "cache").string() + "' 2>/dev/null"));
  EXPECT_EQ(chaos.code, 0);
  EXPECT_EQ(chaos.stdout_text, *single)
      << "retried chaos run drifted from the fault-free bytes";
}

TEST_F(GoldenBatchChaos, TornShardWritesHealToFaultFreeBytes) {
  const auto single = run_and_capture(batch_cmd("run --set linear-line"));
  ASSERT_TRUE(single.has_value());
  Scratch scratch;
  // Every shard cache save is torn to 48 bytes: the merge loader skips
  // the damage and the final pass recomputes the holes — the output
  // bytes must not change.
  const RunStatus chaos = run_status(
      "RV_FAILPOINTS='cache_store.save.pre_rename=torn_write(48)' " +
      batch_cmd("run --set linear-line --procs 2 --cache-dir '" +
                (scratch.path / "cache").string() + "' 2>/dev/null"));
  EXPECT_EQ(chaos.code, 0);
  EXPECT_EQ(chaos.stdout_text, *single);
}

TEST_F(GoldenBatchChaos, ExhaustedRetriesFailWithExitCode4AndNoDocument) {
  Scratch scratch;
  // The crash has no limit: every attempt of shard 1 dies, the budget
  // (--retries 1 = 2 attempts) runs out, and default mode must exit
  // with the documented code 4 while emitting NO partial document.
  const RunStatus chaos = run_status(
      "RV_FAILPOINTS='shard.worker.start=crash(87),index=1' " +
      batch_cmd("run --set linear-line --procs 3 --retries 1 --backoff-ms 10"
                " --cache-dir '" +
                (scratch.path / "cache").string() + "' 2>/dev/null"));
  EXPECT_EQ(chaos.code, 4);
  EXPECT_TRUE(chaos.stdout_text.empty())
      << "default mode must not emit a partial document";
}

TEST_F(GoldenBatchChaos, PartialEmitsSurvivingSubsetAndCoverageReport) {
  const auto single = run_and_capture(batch_cmd("run --set linear-line"));
  ASSERT_TRUE(single.has_value());
  Scratch scratch;
  const fs::path errfile = scratch.path / "stderr.txt";
  const RunStatus chaos = run_status(
      "RV_FAILPOINTS='shard.worker.start=crash(87),index=1' " +
      batch_cmd("run --set linear-line --procs 3 --retries 1 --backoff-ms 10"
                " --partial --cache-dir '" +
                (scratch.path / "cache").string() + "' 2>'" +
                errfile.string() + "'"));
  EXPECT_EQ(chaos.code, 0) << "--partial degrades gracefully";
  // linear-line has 4 items; shard 1 of 3 owns exactly global index 1,
  // so the surviving subset is the full document minus that row (data
  // row 1 = line index 2, after the header).
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(*single);
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);  // header + 4 rows
  const std::string expect_subset =
      lines[0] + "\n" + lines[1] + "\n" + lines[3] + "\n" + lines[4] + "\n";
  EXPECT_EQ(chaos.stdout_text, expect_subset);
  // The machine-readable coverage report names the missing pieces.
  std::ifstream err(errfile);
  const std::string err_text((std::istreambuf_iterator<char>(err)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(err_text.find("\"failed_shards\": [1]"), std::string::npos)
      << err_text;
  EXPECT_NE(err_text.find("\"missing_indices\": [1]"), std::string::npos)
      << err_text;
  EXPECT_NE(err_text.find("shard  attempt  outcome"), std::string::npos)
      << err_text;
}

// ---------------------------------------------------------------------------
// `.rvset` files and cache-dir hygiene: `--set NAME` and `--set-file
// examples/sets/<name>.rvset` read the same text and must emit the same
// bytes, and a shard → compact → warm-merge pipeline over the file must
// replay everything from the single compacted file.
// ---------------------------------------------------------------------------

/// The shipped `.rvset` twin of a built-in set.
fs::path twin_file(const std::string& set) {
#ifdef RV_SETS_DIR
  return fs::path(RV_SETS_DIR) / (set + ".rvset");
#else
  return fs::path("examples/sets") / (set + ".rvset");
#endif
}

TEST_P(GoldenBatchSet, RvsetTwinEmitsTheExactBuiltinBytes) {
  const std::string set = GetParam();
  const fs::path twin = twin_file(set);
  ASSERT_TRUE(fs::exists(twin)) << twin;
  const auto builtin = run_and_capture(batch_cmd("run --set " + set));
  const auto from_file =
      run_and_capture(batch_cmd("run --set-file '" + twin.string() + "'"));
  ASSERT_TRUE(builtin.has_value());
  ASSERT_TRUE(from_file.has_value());
  EXPECT_EQ(*from_file, *builtin)
      << twin << " drifted from the embedded built-in declaration";
}

TEST_P(GoldenBatchSet, ShardCompactWarmMergePipelineReplaysFromOneFile) {
  const std::string set = GetParam();
  const fs::path twin = twin_file(set);
  ASSERT_TRUE(fs::exists(twin)) << twin;
  const auto single = run_and_capture(batch_cmd("run --set " + set));
  ASSERT_TRUE(single.has_value());

  Scratch scratch;
  const std::string dir = (scratch.path / "cache").string();
  // Two shard processes populate the cache dir from the *twin* file.
  for (int s = 0; s < 2; ++s) {
    const auto shard_out = run_and_capture(
        batch_cmd("run --set-file '" + twin.string() + "' --shard " +
                  std::to_string(s) + "/2 --cache-dir '" + dir +
                  "' >/dev/null && echo ok"));
    ASSERT_TRUE(shard_out.has_value()) << "shard " << s;
  }
  // Compact folds the shard files into one; originals are deleted.
  const auto compact_out =
      run_and_capture(batch_cmd("compact --cache-dir '" + dir + "'"));
  ASSERT_TRUE(compact_out.has_value());
  EXPECT_NE(compact_out->find("total: merged=2 evicted=0 dropped=0"),
            std::string::npos)
      << *compact_out;
  std::size_t cache_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".rvcache") ++cache_files;
  }
  EXPECT_EQ(cache_files, 1u);
  // The warm merge replays every outcome from compact.rvcache alone
  // and reproduces the single-process bytes.
  const auto merged = run_and_capture(
      batch_cmd("merge --set-file '" + twin.string() + "' --cache-dir '" +
                dir + "' --require-all-hits"));
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(*merged, *single);
}

TEST(GoldenBatch, HostileShardSpecsAreRejectedUpFront) {
  if (!fs::exists(rv_batch_binary())) {
    GTEST_SKIP() << rv_batch_binary() << " not built";
  }
  // Regression: std::stoul's leniency let "-1/2" wrap to a huge shard
  // index and " 1/2"/"1x/2" slip through; the spec must be rejected
  // with a usage error before any work starts.
  const char* hostile[] = {"-1/2", " 1/2", "1/2x", "0x1/2",
                           "1//2", "1/",   "/2",   "1/0x2"};
  for (const char* spec : hostile) {
    const RunStatus status = run_status(
        batch_cmd("run --set linear-line --shard '" + std::string(spec) +
                  "' 2>&1"));
    EXPECT_EQ(status.code, 1) << "spec '" << spec << "'";
    EXPECT_NE(status.stdout_text.find("--shard expects I/N"),
              std::string::npos)
        << "spec '" << spec << "': " << status.stdout_text;
  }
  // The boundary cases still parse: 0/1 runs everything.
  const auto ok = run_and_capture(
      batch_cmd("run --set linear-line --shard 0/1"));
  EXPECT_TRUE(ok.has_value());
}

TEST(GoldenBatch, FlagsOutsideTheSubcommandContractAreRejected) {
  if (!fs::exists(rv_batch_binary())) {
    GTEST_SKIP() << rv_batch_binary() << " not built";
  }
  // Regression: `cache-stats`/`compact` silently ignored --set and
  // --set-file, and `merge` silently ignored the fork-only supervisor
  // knobs — a typo'd invocation looked successful while doing
  // something else.  Every flag a subcommand does not consume is now
  // a usage error (exit 1) naming the flag and the subcommand.
  Scratch scratch;
  const std::string dir = (scratch.path / "cache").string();
  const struct {
    const char* args;
    const char* flag;
    const char* subcommand;
  } hostile[] = {
      {"cache-stats --cache-dir 'DIR' --set linear-line", "--set",
       "cache-stats"},
      {"cache-stats --cache-dir 'DIR' --set-file x.rvset", "--set-file",
       "cache-stats"},
      {"compact --cache-dir 'DIR' --set linear-line", "--set", "compact"},
      {"compact --cache-dir 'DIR' --format json", "--format", "compact"},
      {"merge --set linear-line --cache-dir 'DIR' --procs 2", "--procs",
       "merge"},
      {"merge --set linear-line --cache-dir 'DIR' --shard 0/2", "--shard",
       "merge"},
      {"merge --set linear-line --cache-dir 'DIR' --retries 2", "--retries",
       "merge"},
      {"merge --set linear-line --cache-dir 'DIR' --partial", "--partial",
       "merge"},
      {"merge --set linear-line --cache-dir 'DIR' --shard-timeout 1",
       "--shard-timeout", "merge"},
      {"list --format json", "--format", "list"},
      {"run --set linear-line --write-merged", "--write-merged", "run"},
      {"run --set linear-line --max-age-days 1", "--max-age-days", "run"},
  };
  for (const auto& sample : hostile) {
    std::string command = sample.args;
    const std::size_t at = command.find("DIR");
    if (at != std::string::npos) command.replace(at, 3, dir);
    const RunStatus status = run_status(batch_cmd(command + " 2>&1"));
    EXPECT_EQ(status.code, 1) << command;
    EXPECT_NE(status.stdout_text.find(std::string(sample.flag) +
                                      " does not apply to '" +
                                      sample.subcommand + "'"),
              std::string::npos)
        << command << ": " << status.stdout_text;
  }
  // The contract does not reject what each subcommand really takes:
  // the full run → cache-stats → compact → merge pipeline still works.
  const auto cold = run_and_capture(
      batch_cmd("run --set linear-line --cache-dir '" + dir + "'"));
  ASSERT_TRUE(cold.has_value());
  EXPECT_TRUE(run_and_capture(batch_cmd("cache-stats --cache-dir '" + dir +
                                        "'"))
                  .has_value());
  EXPECT_TRUE(run_and_capture(batch_cmd("compact --cache-dir '" + dir + "'"))
                  .has_value());
  const auto merged = run_and_capture(
      batch_cmd("merge --set linear-line --cache-dir '" + dir +
                "' --require-all-hits"));
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(*merged, *cold);
}

TEST(GoldenBatch, MalformedRvsetFileFailsWithUsageExitAndNamedLine) {
  if (!fs::exists(rv_batch_binary())) {
    GTEST_SKIP() << rv_batch_binary() << " not built";
  }
  Scratch scratch;
  const fs::path bad = scratch.path / "bad.rvset";
  std::ofstream(bad) << "[search]\ndistances = 1.0x\n";
  const RunStatus status = run_status(
      batch_cmd("run --set-file '" + bad.string() + "' 2>&1"));
  EXPECT_EQ(status.code, 1);
  EXPECT_NE(status.stdout_text.find("line 2"), std::string::npos)
      << status.stdout_text;
  EXPECT_NE(status.stdout_text.find("distances"), std::string::npos)
      << status.stdout_text;
}

TEST(GoldenBatch, ListedSetsArePinned) {
  if (!fs::exists(rv_batch_binary())) {
    GTEST_SKIP() << rv_batch_binary() << " not built";
  }
  const auto out = run_and_capture(batch_cmd("list"));
  if (out.has_value()) golden::compare(*out, "rv_batch/list.txt");
}

// The JSON and table documents of every built-in set (one set per
// family), pinned like the CSV: `<set>.json` and `<set>.txt`.
TEST(GoldenBatch, JsonEmissionMatchesPin) {
  if (!fs::exists(rv_batch_binary())) {
    GTEST_SKIP() << rv_batch_binary() << " not built";
  }
  const std::pair<const char*, const char*> formats[] = {{"json", ".json"},
                                                         {"table", ".txt"}};
  for (const std::string set : {"rendezvous-grid", "search-ring",
                                "gather-fleet", "linear-line",
                                "coverage-disk"}) {
    for (const auto& [format, ext] : formats) {
      const std::string args = "run --set " + set + " --format " + format;
      SCOPED_TRACE(args);
      const auto out = run_and_capture(batch_cmd(args));
      if (out.has_value()) golden::compare(*out, "rv_batch/" + set + ext);
    }
  }
}

}  // namespace
