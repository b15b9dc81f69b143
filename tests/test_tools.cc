// Exercises the CLI binaries end to end by exec'ing them: argument
// validation, record→analyze round trips, every analyzer output mode, the
// selective filter and dynamic-activation wrapper flags. Binary locations
// come from TEEPERF_BIN_DIR (set by CMake).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "analyzer/dump_reader.h"
#include "common/fileutil.h"

namespace teeperf {
namespace {

std::string bin_dir() {
  const char* d = std::getenv("TEEPERF_BIN_DIR");
  return d ? d : "build";
}

// Runs a command line, captures combined stdout+stderr into *output,
// returns the exit code (or -1 on spawn failure).
int run_cmd(const std::vector<std::string>& args, std::string* output) {
  std::string out_file = make_temp_dir("teeperf_cli_") + "/out";
  std::string cmd;
  for (const auto& a : args) {
    cmd += "'" + a + "' ";
  }
  cmd += "> " + out_file + " 2>&1";
  int status = std::system(cmd.c_str());
  if (auto text = read_file(out_file)) *output = *text;
  remove_tree(out_file.substr(0, out_file.rfind('/')));
  if (status < 0) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class ToolsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = make_temp_dir("teeperf_tools_");
    record_ = bin_dir() + "/tools/teeperf_record";
    analyze_ = bin_dir() + "/tools/teeperf_analyze";
    flamegraph_ = bin_dir() + "/tools/teeperf_flamegraph";
    stats_ = bin_dir() + "/tools/teeperf_stats";
    fuzz_ = bin_dir() + "/tools/teeperf_fuzz";
    app_ = bin_dir() + "/examples/instrumented_app";
  }
  void TearDown() override { remove_tree(dir_); }

  // Records one run of the instrumented app; returns the dump prefix.
  std::string record_run(const std::vector<std::string>& extra = {}) {
    std::string prefix = dir_ + "/run";
    std::vector<std::string> args{record_, "-o", prefix, "-n", "262144"};
    args.insert(args.end(), extra.begin(), extra.end());
    args.push_back("--");
    args.push_back(app_);
    args.push_back(dir_ + "/appout");
    std::string out;
    EXPECT_EQ(run_cmd(args, &out), 0) << out;
    return prefix;
  }

  std::string dir_, record_, analyze_, flamegraph_, stats_, fuzz_, app_;
};

TEST_F(ToolsTest, RecordRejectsBadArgs) {
  std::string out;
  EXPECT_EQ(run_cmd({record_}, &out), 2);                       // no command
  EXPECT_EQ(run_cmd({record_, "--bogus", "--", "true"}, &out), 2);
  EXPECT_EQ(run_cmd({record_, "-c", "sundial", "--", "true"}, &out), 2);
}

TEST_F(ToolsTest, AnalyzeRejectsMissingPrefix) {
  std::string out;
  EXPECT_EQ(run_cmd({analyze_}, &out), 2);
  EXPECT_EQ(run_cmd({analyze_, dir_ + "/nonexistent"}, &out), 1);
}

TEST_F(ToolsTest, RecordAnalyzeAllOutputModes) {
  std::string prefix = record_run();
  ASSERT_TRUE(file_exists(prefix + ".log"));
  ASSERT_TRUE(file_exists(prefix + ".sym"));

  std::string out;
  ASSERT_EQ(run_cmd({analyze_, prefix, "--top", "10", "--callgraph",
                     "--threads", "--tree", "--gprof", "--hottest",
                     "--validate"},
                    &out),
            0)
      << out;
  EXPECT_NE(out.find("fibonacci"), std::string::npos);
  EXPECT_NE(out.find("Flat profile"), std::string::npos);
  EXPECT_NE(out.find("hottest stack"), std::string::npos);
  EXPECT_NE(out.find("validation: clean"), std::string::npos);
  EXPECT_NE(out.find("<all threads>"), std::string::npos);

  // File-producing modes.
  ASSERT_EQ(run_cmd({analyze_, prefix, "--csv", dir_ + "/o.csv", "--folded",
                     dir_ + "/o.folded", "--svg", dir_ + "/o.svg",
                     "--timeline", dir_ + "/o.tl.csv", "--timeline-svg",
                     dir_ + "/o.tl.svg", "--chrome", dir_ + "/o.json"},
                    &out),
            0)
      << out;
  for (const char* f : {"/o.csv", "/o.folded", "/o.svg", "/o.tl.csv",
                        "/o.tl.svg", "/o.json"}) {
    auto content = read_file(dir_ + f);
    ASSERT_TRUE(content.has_value()) << f;
    EXPECT_FALSE(content->empty()) << f;
  }
  EXPECT_NE(read_file(dir_ + "/o.json")->find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(ToolsTest, AnalyzeMethodQueryAndMerge) {
  std::string p1 = record_run();
  // Second run under a different prefix for the merge.
  std::string p2 = dir_ + "/run2";
  std::string out;
  ASSERT_EQ(run_cmd({record_, "-o", p2, "--", app_, dir_ + "/appout2"}, &out), 0);

  ASSERT_EQ(run_cmd({analyze_, p1, "--method", "fibonacci"}, &out), 0) << out;
  EXPECT_NE(out.find("invocations matching"), std::string::npos);
  EXPECT_NE(out.find("by caller:"), std::string::npos);

  ASSERT_EQ(run_cmd({analyze_, p1, "--merge", p2}, &out), 0) << out;
  EXPECT_NE(out.find("merged 2 dumps"), std::string::npos);
}

TEST_F(ToolsTest, RecordInactiveStaysEmpty) {
  std::string prefix = record_run({"--inactive"});
  std::string out;
  ASSERT_EQ(run_cmd({analyze_, prefix}, &out), 0);
  EXPECT_NE(out.find("entries=0"), std::string::npos);
}

TEST_F(ToolsTest, RecordCallsOnlyHalvesEvents) {
  std::string full = record_run();
  std::string calls_prefix = dir_ + "/calls";
  std::string out;
  ASSERT_EQ(run_cmd({record_, "-o", calls_prefix, "--calls-only", "--", app_,
                     dir_ + "/x"},
                    &out),
            0);
  auto full_log = read_file(full + ".log");
  auto calls_log = read_file(calls_prefix + ".log");
  ASSERT_TRUE(full_log && calls_log);
  // Same workload, returns dropped: roughly half the entries.
  EXPECT_LT(calls_log->size(), full_log->size() * 3 / 4);
}

TEST_F(ToolsTest, FlamegraphToolRoundTrip) {
  std::string prefix = record_run();
  std::string out;
  ASSERT_EQ(run_cmd({analyze_, prefix, "--folded", dir_ + "/f.folded"}, &out), 0);
  ASSERT_EQ(run_cmd({flamegraph_, dir_ + "/f.folded", dir_ + "/f.svg",
                     "--title", "cli test", "--width", "900"},
                    &out),
            0)
      << out;
  auto svg = read_file(dir_ + "/f.svg");
  ASSERT_TRUE(svg.has_value());
  EXPECT_NE(svg->find("cli test"), std::string::npos);
  EXPECT_NE(svg->find("width=\"900\""), std::string::npos);
}

TEST_F(ToolsTest, FlamegraphToolRejectsGarbage) {
  write_file(dir_ + "/garbage", "not folded stacks at all");
  std::string out;
  EXPECT_EQ(run_cmd({flamegraph_, dir_ + "/garbage", dir_ + "/out.svg"}, &out), 1);
  EXPECT_EQ(run_cmd({flamegraph_, dir_ + "/missing", dir_ + "/out.svg"}, &out), 1);
}

// --- negative paths (ISSUE: every tool must fail loudly, never crash) -----

TEST_F(ToolsTest, AnalyzeRejectsTruncatedAndCorruptDumps) {
  std::string prefix = record_run();
  auto log = read_file(prefix + ".log");
  ASSERT_TRUE(log.has_value());
  ASSERT_GT(log->size(), 256u);

  // Sub-header truncation: not even a LogHeader left — hard failure with a
  // diagnostic naming the file.
  std::string stub = prefix + "_stub";
  ASSERT_TRUE(write_file(stub + ".log", log->substr(0, 64)));
  std::string out;
  EXPECT_EQ(run_cmd({analyze_, stub}, &out), 1);
  EXPECT_NE(out.find("cannot load"), std::string::npos) << out;

  // Truncation mid-entries: the valid prefix still analyzes (torn-dump
  // recovery), exit 0.
  std::string torn = prefix + "_torn";
  ASSERT_TRUE(write_file(torn + ".log", log->substr(0, log->size() / 2)));
  EXPECT_EQ(run_cmd({analyze_, torn}, &out), 0) << out;

  // Corrupt magic: rejected outright.
  std::string bad = *log;
  bad[0] ^= 0xff;
  std::string corrupt = prefix + "_magic";
  ASSERT_TRUE(write_file(corrupt + ".log", bad));
  EXPECT_EQ(run_cmd({analyze_, corrupt}, &out), 1);
  EXPECT_NE(out.find("cannot load"), std::string::npos) << out;
}

TEST_F(ToolsTest, RecordRejectsBadFaultSpec) {
  std::string out;
  EXPECT_EQ(run_cmd({record_, "--faults", "dump.torn:nth=0", "--", "true"},
                    &out),
            2);
  EXPECT_NE(out.find("bad --faults"), std::string::npos) << out;
  EXPECT_EQ(run_cmd({record_, "--faults", "p:bogus=1", "--", "true"}, &out), 2);
}

TEST_F(ToolsTest, RecordWithAppendDieFaultStillWritesLoadableDump) {
  // The armed child SIGKILLs itself mid-append; the wrapper must still
  // persist the log, and the analyzer must recover the valid prefix.
  std::string prefix = dir_ + "/faulted";
  std::string out;
  EXPECT_EQ(run_cmd({record_, "-o", prefix, "-c", "steady_clock", "--faults",
                     "log.append.die:nth=40", "--fault-seed", "2", "--", app_,
                     dir_ + "/fx"},
                    &out),
            1)
      << out;
  ASSERT_TRUE(file_exists(prefix + ".log"));
  EXPECT_EQ(run_cmd({analyze_, prefix}, &out), 0) << out;
}

TEST_F(ToolsTest, RecordWithDumpFailFaultWritesNoLog) {
  // dump.fail fires in the wrapper's session dump: the run must fail with a
  // diagnostic and leave no .log that could pass for a clean capture.
  std::string prefix = dir_ + "/dumpfail";
  std::string out;
  EXPECT_EQ(run_cmd({record_, "-o", prefix, "-c", "steady_clock", "--faults",
                     "dump.fail:nth=1", "--", app_, dir_ + "/fx"},
                    &out),
            1)
      << out;
  EXPECT_NE(out.find("writing " + prefix + ".log failed"), std::string::npos)
      << out;
  EXPECT_FALSE(file_exists(prefix + ".log"));
}

TEST_F(ToolsTest, RecordCalibratesEveryCounterMode) {
  // The dump header carries the session's ticks→ns rate: measured for the
  // TSC and the software counter, exactly 1 for the steady clock (its ticks
  // are nanoseconds).
  for (std::string counter : {"tsc", "software", "steady_clock"}) {
    std::string prefix = record_run({"-c", counter});
    std::optional<std::string> bytes = read_file(prefix + ".log");
    ASSERT_TRUE(bytes.has_value()) << counter;
    std::optional<analyzer::ParsedDump> dump = analyzer::parse_dump(*bytes);
    ASSERT_TRUE(dump.has_value()) << counter;
    if (counter == "steady_clock") {
      EXPECT_EQ(dump->ns_per_tick, 1.0);
    } else {
      EXPECT_GT(dump->ns_per_tick, 0.0) << counter;
    }
  }
}

TEST_F(ToolsTest, StatsRejectsBadArgsAndMissingSession) {
  std::string out;
  EXPECT_EQ(run_cmd({stats_}, &out), 2);
  EXPECT_EQ(run_cmd({stats_, "12345", "--bogus"}, &out), 2);
  EXPECT_EQ(run_cmd({stats_, "12345", "--arm", "=3"}, &out), 2);
  EXPECT_NE(out.find("bad --arm"), std::string::npos) << out;
  // Valid args, but nobody is publishing telemetry under that name.
  EXPECT_EQ(run_cmd({stats_, "/teeperf.nosuch.session"}, &out), 1);
  EXPECT_NE(out.find("no telemetry region"), std::string::npos) << out;
}

TEST_F(ToolsTest, FuzzRejectsBadArgsAndMissingCorpus) {
  std::string out;
  EXPECT_EQ(run_cmd({fuzz_, "--bogus"}, &out), 2);
  EXPECT_EQ(run_cmd({fuzz_, "--corpus"}, &out), 2);  // flag without value
  EXPECT_EQ(run_cmd({fuzz_, "--corpus", dir_ + "/empty_corpus", "--iters", "1"},
                    &out),
            1);  // no corpus files to mutate
}

TEST_F(ToolsTest, DiffBetweenTwoRuns) {
  std::string p1 = record_run();
  std::string p2 = dir_ + "/second";
  std::string out;
  ASSERT_EQ(run_cmd({record_, "-o", p2, "--", app_, dir_ + "/y"}, &out), 0);
  ASSERT_EQ(run_cmd({analyze_, p1, "--diff", p2}, &out), 0) << out;
  EXPECT_NE(out.find("delta(ms)"), std::string::npos);
}

}  // namespace
}  // namespace teeperf
