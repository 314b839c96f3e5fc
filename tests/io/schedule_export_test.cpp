#include "io/schedule_export.hpp"

#include <gtest/gtest.h>

#include "../obs/json_check.hpp"
#include "io/problem_format.hpp"
#include "sched/heuristics.hpp"
#include "workload/paper_examples.hpp"

namespace ftsched {
namespace {

TEST(ScheduleExport, JsonContainsEveryPlacement) {
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const std::string json = io::to_json(schedule);

  EXPECT_NE(json.find("\"makespan\": 9.4"), std::string::npos);
  EXPECT_NE(json.find("\"failures_tolerated\": 1"), std::string::npos);
  for (const Operation& op : ex.problem.algorithm->operations()) {
    EXPECT_NE(json.find("\"op\": \"" + op.name + "\""), std::string::npos);
  }
  EXPECT_NE(json.find("\"liveness\": false"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ScheduleExport, JsonStaysValidForControlCharactersInNames) {
  // Operation B and the link are named with raw control bytes.
  const auto parsed = io::read_problem(
      "algorithm\n  operation I extio-in\n  operation B\x01x\n"
      "  operation O extio-out\n  dependency I B\x01x\n"
      "  dependency B\x01x O\n"
      "architecture\n  processor P1\n  processor P2\n"
      "  link l\x1f" "k P1 P2\n"
      "exec\n  I * 1\n  B\x01x * 2\n  O * 1\n"
      "comm\n  I->B\x01x * 1\n  B\x01x->O * 1\n"
      "problem\n  tolerate 1\n");
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  const Schedule schedule = schedule_solution1(parsed->problem).value();
  const std::string json = io::to_json(schedule);
  EXPECT_NE(json.find("B\\u0001x"), std::string::npos);
  EXPECT_TRUE(testing::valid_json(json)) << json;
}

TEST(ScheduleExport, CsvRowsMatchScheduleContents) {
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const std::string csv = io::to_csv(schedule);

  std::size_t rows = 0;
  for (char c : csv) rows += c == '\n';
  std::size_t segments = 0;
  for (const ScheduledComm& comm : schedule.comms()) {
    segments += comm.segments.size();
  }
  EXPECT_EQ(rows, 1 + schedule.operations().size() + segments);
  EXPECT_EQ(csv.rfind("kind,entity,rank,resource,start,end,extra", 0), 0u);
  EXPECT_NE(csv.find("op,I,0,P1,0,1,main"), std::string::npos);
}

}  // namespace
}  // namespace ftsched
