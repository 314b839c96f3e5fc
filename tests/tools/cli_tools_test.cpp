// The numeric operands and output files of trace_tool and
// tradeoff_explorer go through io/cli_util: an operand that overflows is
// refused with a diagnostic instead of saturating, and an output file that
// cannot take the bytes is reported instead of claimed written.
// schedule_tool shares campaign_tool's exit codes: 2 for bad usage, 3 for
// an unreadable or malformed input file.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct Outcome {
  int status = -1;
  std::string output;  // stdout and stderr
};

Outcome run(const std::string& command) {
  Outcome out;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return out;
  std::array<char, 4096> buffer{};
  std::size_t n = 0;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    out.output.append(buffer.data(), n);
  }
  const int raw = pclose(pipe);
  out.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return out;
}

bool has(const Outcome& outcome, const std::string& text) {
  return outcome.output.find(text) != std::string::npos;
}

TEST(TraceTool, OutOfRangeSeedIsRefused) {
  const Outcome out = run(std::string(FTSCHED_TRACE_TOOL) +
                          " profile --example1 --scenarios 10"
                          " --seed 99999999999999999999");
  EXPECT_EQ(out.status, 2);
  EXPECT_TRUE(has(out, "--seed operand \"99999999999999999999\" is out of "
                       "range"))
      << out.output;
}

TEST(TraceTool, OutOfRangeFailTimeIsRefused) {
  const Outcome out = run(std::string(FTSCHED_TRACE_TOOL) +
                          " sim --example1 --fail P1@1e999");
  EXPECT_EQ(out.status, 2);
  EXPECT_TRUE(has(out, "--fail operand \"P1@1e999\" is out of range"))
      << out.output;
}

TEST(TraceTool, WriteToFullDeviceReportsCannotWrite) {
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  const Outcome out = run(std::string(FTSCHED_TRACE_TOOL) +
                          " gantt --example1 -o /dev/full");
  EXPECT_EQ(out.status, 2);
  EXPECT_TRUE(has(out, "cannot write /dev/full")) << out.output;
  EXPECT_FALSE(has(out, "wrote /dev/full")) << out.output;
}

TEST(TradeoffExplorer, OutOfRangeOperandIsRefused) {
  const Outcome out = run(std::string(FTSCHED_TRADEOFF_EXPLORER) +
                          " 20 4 1 0.5 bus 99999999999999999999");
  EXPECT_EQ(out.status, 2);
  EXPECT_TRUE(has(out, "seed operand \"99999999999999999999\" is out of "
                       "range"))
      << out.output;
}

TEST(TradeoffExplorer, MalformedOperandIsRefused) {
  const Outcome out = run(std::string(FTSCHED_TRADEOFF_EXPLORER) + " 20 4x");
  EXPECT_EQ(out.status, 2);
  EXPECT_TRUE(has(out, "procs operand \"4x\" is malformed")) << out.output;
}

TEST(TradeoffExplorer, DefaultsStillRun) {
  const Outcome out = run(std::string(FTSCHED_TRADEOFF_EXPLORER) + " 12 3");
  EXPECT_EQ(out.status, 0) << out.output;
  EXPECT_TRUE(has(out, "3 processors, K=1, ccr=0.50"))
      << out.output;
}

TEST(ScheduleTool, MalformedInputFileExitsThreeNamingTheLine) {
  std::ifstream example(std::string(FTSCHED_SOURCE_DIR) +
                        "/data/example1.ft");
  ASSERT_TRUE(example.good());
  std::stringstream text;
  text << example.rdbuf() << "deadline nan\n";
  const std::string path = ::testing::TempDir() + "deadline_nan.ft";
  std::ofstream(path) << text.str();
  const Outcome out =
      run(std::string(FTSCHED_SCHEDULE_TOOL) + " " + path + " --solution1");
  EXPECT_EQ(out.status, 3) << out.output;
  EXPECT_TRUE(has(out, "deadline_nan.ft: line ")) << out.output;
  EXPECT_TRUE(has(out, ": bad deadline: nan")) << out.output;
}

TEST(ScheduleTool, MissingInputFileExitsThree) {
  const Outcome out = run(std::string(FTSCHED_SCHEDULE_TOOL) +
                          " no_such_problem_file.ft --solution1");
  EXPECT_EQ(out.status, 3) << out.output;
  EXPECT_TRUE(has(out, "no_such_problem_file.ft: cannot open file"))
      << out.output;
}

TEST(ScheduleTool, UnknownFlagExitsTwoWithTheExitCodes) {
  const Outcome out =
      run(std::string(FTSCHED_SCHEDULE_TOOL) + " --example1 --bogus");
  EXPECT_EQ(out.status, 2) << out.output;
  EXPECT_TRUE(has(out, "usage: schedule_tool")) << out.output;
  EXPECT_TRUE(has(out, "3 input file unreadable or")) << out.output;
}

TEST(ScheduleTool, WriteToFullDeviceReportsCannotWrite) {
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  const Outcome out = run(std::string(FTSCHED_SCHEDULE_TOOL) +
                          " --example1 --json -o /dev/full");
  EXPECT_EQ(out.status, 2) << out.output;
  EXPECT_TRUE(has(out, "cannot write /dev/full")) << out.output;
}

}  // namespace
