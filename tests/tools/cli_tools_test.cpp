// The numeric operands and output files of trace_tool and
// tradeoff_explorer go through io/cli_util: an operand that overflows is
// refused with a diagnostic instead of saturating, and an output file that
// cannot take the bytes is reported instead of claimed written.
// schedule_tool shares campaign_tool's exit codes: 2 for bad usage, 3 for
// an unreadable or malformed input file. Both also flush and check stdout
// before exiting, so a report lost on a full device exits 2.
//
// The CampaignTool suite pins each campaign_tool mode end to end: exit
// code, stdout (minus the wall-clock "rate:" lines) and the bytes of every
// artifact the mode writes, against tests/tools/golden/.
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

/// Runs `command` through the shell. `stderr_to` is appended to it: the
/// default folds stderr into the captured output.
Outcome run(const std::string& command,
            const std::string& stderr_to = " 2>&1") {
  Outcome out;
  FILE* pipe = popen((command + stderr_to).c_str(), "r");
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

TEST(TraceTool, MissingInputFileExitsThree) {
  const Outcome out = run(std::string(FTSCHED_TRACE_TOOL) +
                          " gantt no_such_problem_file.ft");
  EXPECT_EQ(out.status, 3) << out.output;
  EXPECT_TRUE(has(out, "trace_tool: no_such_problem_file.ft: cannot open "
                       "file"))
      << out.output;
}

TEST(TraceTool, MalformedInputFileExitsThreeNamingTheLine) {
  const std::string path = ::testing::TempDir() + "trace_tool_garbage.ft";
  std::ofstream(path) << "garbage\n";
  const Outcome out =
      run(std::string(FTSCHED_TRACE_TOOL) + " gantt " + path);
  EXPECT_EQ(out.status, 3) << out.output;
  EXPECT_TRUE(has(out, "trace_tool: " + path +
                           ": line 1: directive outside any section"))
      << out.output;
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

TEST(ScheduleTool, FullStdoutReportsCannotWrite) {
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  // stderr goes to the captured pipe, stdout to the full device.
  const Outcome out = run(std::string(FTSCHED_SCHEDULE_TOOL) +
                              " --example1 --json",
                          " 2>&1 >/dev/full");
  EXPECT_EQ(out.status, 2) << out.output;
  EXPECT_TRUE(has(out, "schedule_tool: cannot write stdout")) << out.output;
}

std::string source_path(const std::string& relative) {
  return std::string(FTSCHED_SOURCE_DIR) + "/" + relative;
}

std::string read_bytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// A fresh path under the test temp dir, so parallel test processes never
/// share a file.
std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "campaign_tool_" + name;
  std::remove(path.c_str());
  return path;
}

/// campaign_tool's stdout (stderr discarded) without the "rate:" lines,
/// which carry wall-clock throughput and the thread count.
Outcome campaign_tool(const std::string& args) {
  Outcome out =
      run(std::string(FTSCHED_CAMPAIGN_TOOL) + " " + args, " 2>/dev/null");
  std::istringstream lines(out.output);
  std::string kept;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("rate:", 0) != 0) kept += line + "\n";
  }
  out.output = kept;
  return out;
}

std::string golden(const std::string& name) {
  return read_bytes(source_path("tests/tools/golden/" + name));
}

TEST(CampaignTool, PlanKeyPrintsTheBareKey) {
  const Outcome out =
      campaign_tool(source_path("data/certify_k2.ft") + " --solution2 --plan-key");
  EXPECT_EQ(out.status, 0);
  EXPECT_EQ(out.output, "pk-195288964ea8bd6f-k2-l0-s0-rinf-d1-c16\n");
}

TEST(CampaignTool, CertifyWritesTheGoldenCertificate) {
  const std::string cert = temp_path("e1s1.cert.json");
  const Outcome out = campaign_tool("--example1 --solution1 --certify"
                                    " --certify-out " + cert);
  EXPECT_EQ(out.status, 0);
  EXPECT_EQ(out.output, golden("certify_example1_solution1.out"));
  EXPECT_EQ(read_bytes(cert),
            read_bytes(source_path("data/golden/example1_solution1.cert.json")));
}

TEST(CampaignTool, RefutedCertifyPrintsTheShrunkReproducer) {
  const std::string cert = temp_path("e1base.cert.json");
  const Outcome out = campaign_tool("--example1 --base --claim-k 1 --certify"
                                    " --certify-out " + cert);
  EXPECT_EQ(out.status, 1);
  EXPECT_EQ(out.output, golden("certify_example1_base_k1.out"));
  EXPECT_EQ(read_bytes(cert), golden("certify_example1_base_k1.cert.json"));
}

TEST(CampaignTool, TwoShardsMergeIntoTheGoldenCertificate) {
  const std::string problem = source_path("data/certify_k2.ft");
  std::string merge_args;
  for (const char* shard : {"0", "1"}) {
    const std::string stream =
        temp_path(std::string("shard") + shard + "of2.ndjson");
    const Outcome out =
        campaign_tool(problem + " --solution2 --certify-shard " + shard +
                      "/2 --stream-out " + stream);
    EXPECT_EQ(out.status, 0);
    EXPECT_EQ(out.output, "");
    EXPECT_EQ(read_bytes(stream), golden(std::string("certify_k2_shard") +
                                         shard + "of2.ndjson"));
    merge_args += " --merge-stream " + stream;
  }
  const std::string cert = temp_path("merged.cert.json");
  const Outcome out = campaign_tool(problem + " --solution2" + merge_args +
                                    " --certify-out " + cert);
  EXPECT_EQ(out.status, 0);
  EXPECT_EQ(out.output, golden("certify_k2_merge.out"));
  EXPECT_EQ(read_bytes(cert),
            read_bytes(source_path("data/golden/certify_k2.cert.json")));
}

TEST(CampaignTool, FrontierWritesTheGoldenReport) {
  const std::string report = temp_path("frontier.json");
  const Outcome out = campaign_tool("--example1 --solution1 --frontier"
                                    " --frontier-out " + report);
  EXPECT_EQ(out.status, 0);
  EXPECT_EQ(out.output, golden("frontier_example1_solution1.out"));
  EXPECT_EQ(read_bytes(report), golden("frontier_example1_solution1.json"));
}

TEST(CampaignTool, ReplayJudgesTheRegressionScenario) {
  const std::string scenario = source_path(
      "tests/campaign/regressions/example1_base_claim1.scenario");
  const Outcome base = campaign_tool("--example1 --base --replay " +
                                     scenario + " --claim-k 1");
  EXPECT_EQ(base.status, 1);
  EXPECT_EQ(base.output, golden("replay_example1_base_claim1_base.out"));
  const Outcome solution1 = campaign_tool("--example1 --solution1 --replay " +
                                          scenario + " --claim-k 1");
  EXPECT_EQ(solution1.status, 0);
  EXPECT_EQ(solution1.output,
            golden("replay_example1_base_claim1_solution1.out"));
}

TEST(CampaignTool, RepairWritesTheGoldenLog) {
  const std::string log = temp_path("repair.json");
  const Outcome out = campaign_tool(
      source_path("data/certify_k2.ft") +
      " --solution2 --claim-k 1 --certify-links 1 --repair --repair-out " +
      log);
  EXPECT_EQ(out.status, 0);
  EXPECT_EQ(out.output, golden("repair_certify_k2_l1.out"));
  EXPECT_EQ(read_bytes(log), golden("repair_certify_k2_l1.json"));
}

TEST(CampaignTool, CampaignWritesTheGoldenMetrics) {
  const std::string metrics = temp_path("campaign.metrics.json");
  const Outcome out = campaign_tool("--example1 --solution1 --seed 42"
                                    " --scenarios 2000 --metrics-out " +
                                    metrics);
  EXPECT_EQ(out.status, 0);
  EXPECT_EQ(out.output, golden("campaign_example1_solution1_seed42.out"));
  EXPECT_EQ(read_bytes(metrics),
            golden("campaign_example1_solution1_seed42.metrics.json"));
}

TEST(CampaignTool, ServeAnswersTheRepeatFromTheCache) {
  const std::string submit =
      "\"problem\":\"" + source_path("data/certify_k2.ft") +
      "\",\"heuristic\":\"solution2\"}";
  const std::string script = temp_path("serve.ndjson");
  std::ofstream(script) << "{\"type\":\"submit\",\"id\":\"a\"," << submit
                        << "\n{\"type\":\"submit\",\"id\":\"b\"," << submit
                        << "\n{\"type\":\"shutdown\",\"id\":\"z\"}\n";
  const Outcome out = campaign_tool("--serve < " + script);
  EXPECT_EQ(out.status, 0);
  const std::size_t miss = out.output.find("\"cache\":\"miss\"");
  const std::size_t hit = out.output.find("\"cache\":\"hit\"");
  ASSERT_NE(miss, std::string::npos) << out.output;
  ASSERT_NE(hit, std::string::npos) << out.output;
  EXPECT_LT(miss, hit);
  EXPECT_TRUE(has(out, "{\"type\":\"bye\",\"id\":\"z\"}")) << out.output;
}

TEST(CampaignTool, MalformedInputFileExitsThreeNamingTheLine) {
  const std::string path = temp_path("garbage.ft");
  std::ofstream(path) << "garbage\n";
  const Outcome out =
      run(std::string(FTSCHED_CAMPAIGN_TOOL) + " " + path + " --solution1");
  EXPECT_EQ(out.status, 3);
  EXPECT_TRUE(has(out, "campaign_tool: " + path +
                           ": line 1: directive outside any section"))
      << out.output;
}

TEST(CampaignTool, OutOfRangeSeedExitsThree) {
  const Outcome out = run(std::string(FTSCHED_CAMPAIGN_TOOL) +
                          " --example1 --solution1"
                          " --seed 99999999999999999999");
  EXPECT_EQ(out.status, 3);
  EXPECT_TRUE(has(out, "campaign_tool: --seed operand "
                       "\"99999999999999999999\" is out of range"))
      << out.output;
}

TEST(CampaignTool, ShardStreamToFullDeviceReportsCannotWrite) {
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  const Outcome out = run(std::string(FTSCHED_CAMPAIGN_TOOL) + " " +
                          source_path("data/certify_k2.ft") +
                          " --solution2 --certify-shard 0/2"
                          " --stream-out /dev/full");
  EXPECT_EQ(out.status, 2) << out.output;
  EXPECT_TRUE(has(out, "cannot write /dev/full")) << out.output;
}

TEST(CampaignTool, ShardStreamOnFullStdoutReportsCannotWrite) {
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  // Without --stream-out the NDJSON records go to stdout, here the full
  // device; stderr goes to the captured pipe.
  const Outcome out = run(std::string(FTSCHED_CAMPAIGN_TOOL) + " " +
                              source_path("data/certify_k2.ft") +
                              " --solution2 --certify-shard 0/2",
                          " 2>&1 >/dev/full");
  EXPECT_EQ(out.status, 2) << out.output;
  EXPECT_TRUE(has(out, "campaign_tool: cannot write stdout")) << out.output;
}

TEST(CampaignTool, TraceOutIsWrittenInEveryMode) {
  const std::string trace = temp_path("frontier.trace.json");
  const Outcome out = campaign_tool("--example1 --solution1 --frontier"
                                    " --trace-out " + trace);
  EXPECT_EQ(out.status, 0);
  EXPECT_EQ(read_bytes(trace).rfind("{\"traceEvents\": [", 0), 0u);
  const std::string key_trace = temp_path("plan_key.trace.json");
  EXPECT_EQ(campaign_tool("--example1 --plan-key --trace-out " + key_trace)
                .status,
            0);
  EXPECT_EQ(read_bytes(key_trace).rfind("{\"traceEvents\": [", 0), 0u);
}

TEST(CampaignTool, MergeWritesTheMetrics) {
  const std::string problem = source_path("data/certify_k2.ft");
  const std::string stream = temp_path("merge_metrics.ndjson");
  ASSERT_EQ(campaign_tool(problem + " --solution2 --certify-shard 0/1"
                                    " --stream-out " + stream)
                .status,
            0);
  const std::string metrics = temp_path("merge.metrics.json");
  const Outcome out = campaign_tool(problem + " --solution2 --merge-stream " +
                                    stream + " --metrics-out " + metrics);
  EXPECT_EQ(out.status, 0);
  EXPECT_NE(read_bytes(metrics).find("\"certify.branches\": 14598"),
            std::string::npos);
}

TEST(CampaignTool, OutputFlagTheModeDoesNotWriteIsRefused) {
  const std::string metrics = temp_path("frontier.metrics.json");
  const Outcome frontier = run(std::string(FTSCHED_CAMPAIGN_TOOL) +
                               " --example1 --frontier --metrics-out " +
                               metrics);
  EXPECT_EQ(frontier.status, 2);
  EXPECT_TRUE(has(frontier, "campaign_tool: --metrics-out is not written "
                            "in frontier mode"))
      << frontier.output;
  EXPECT_FALSE(std::ifstream(metrics).good());
  const Outcome campaign = run(std::string(FTSCHED_CAMPAIGN_TOOL) +
                               " --example1 --certify-out cert.json");
  EXPECT_EQ(campaign.status, 2);
  EXPECT_TRUE(has(campaign, "--certify-out is not written in campaign mode"))
      << campaign.output;
}

}  // namespace
