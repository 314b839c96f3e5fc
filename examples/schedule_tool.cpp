// schedule_tool: a standalone command-line front end — read a problem file
// (the SynDEx-style format of io/problem_format.hpp), run a heuristic, and
// emit the schedule in the requested form. Composes into shell pipelines:
//
//   ./schedule_tool problem.ft --solution1 --gantt
//   ./schedule_tool problem.ft --solution2 --json > schedule.json
//   ./schedule_tool problem.ft --base --csv | column -t -s,
//   ./schedule_tool --example1 --solution1 --exec   # built-in paper input
//   ./schedule_tool problem.ft --solution1 --json -o schedule.json
//
// Exit status: 0 = ok, 1 = scheduling failed, 2 = usage error (unknown
// flag, missing operand, unwritable -o file), 3 = input file unreadable or
// malformed (the diagnostic names the file and the offending line) — the
// same codes as campaign_tool.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "exec/codegen.hpp"
#include "io/cli_util.hpp"
#include "io/problem_format.hpp"
#include "io/schedule_export.hpp"
#include "sched/gantt.hpp"
#include "sched/heuristics.hpp"
#include "sched/metrics.hpp"
#include "sched/validate.hpp"
#include "sim/reliability.hpp"
#include "tuning/hybrid.hpp"
#include "workload/paper_examples.hpp"

using namespace ftsched;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: schedule_tool <file | --example1 | --example2>\n"
      "                     [--base | --solution1 | --solution2 | --hybrid]\n"
      "                     [--text | --gantt | --json | --csv | --exec |\n"
      "                      --problem | --analyze] [-o FILE]\n"
      "\n"
      "-o FILE writes the output to FILE instead of stdout.\n"
      "\n"
      "exit status: 0 ok, 1 scheduling failed, 2 usage error (an\n"
      "unwritable -o FILE included), 3 input file unreadable or\n"
      "malformed (diagnostic names the file and the offending line).\n");
  return 2;
}

/// Input-file failure (unreadable or malformed): one line naming the file
/// and, for a parse error, the offending line — exit 3, so scripts can
/// tell "bad input" from "scheduling failed" (1) and "bad usage" (2).
int input_error(const std::string& path, const std::string& message) {
  std::fprintf(stderr, "schedule_tool: %s: %s\n", path.c_str(),
               message.c_str());
  return 3;
}

/// Writes `content` to stdout, or through io::write_file to `path`.
bool emit(const std::string& path, const std::string& content) {
  if (path.empty()) {
    std::fputs(content.c_str(), stdout);
    return true;
  }
  return io::write_file(path, content);
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  HeuristicKind kind = HeuristicKind::kSolution1;
  std::string output = "--gantt";
  std::string out_path;
  bool example1 = false;
  bool example2 = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--example1") {
      example1 = true;
    } else if (arg == "--example2") {
      example2 = true;
    } else if (arg == "--base") {
      kind = HeuristicKind::kBase;
    } else if (arg == "--solution1") {
      kind = HeuristicKind::kSolution1;
    } else if (arg == "--solution2") {
      kind = HeuristicKind::kSolution2;
    } else if (arg == "--hybrid") {
      kind = HeuristicKind::kHybrid;
    } else if (arg == "--text" || arg == "--gantt" || arg == "--json" ||
               arg == "--csv" || arg == "--exec" || arg == "--problem" ||
               arg == "--analyze") {
      output = arg;
    } else if (arg == "-o") {
      if (++i >= argc) return usage();
      out_path = argv[i];
    } else if (!arg.empty() && arg[0] != '-') {
      input = arg;
    } else {
      return usage();
    }
  }

  workload::OwnedProblem owned;
  if (example1) {
    owned = workload::paper_example1();
  } else if (example2) {
    owned = workload::paper_example2();
  } else if (!input.empty()) {
    std::ifstream file(input);
    if (!file) return input_error(input, "cannot open file");
    std::stringstream buffer;
    buffer << file.rdbuf();
    Expected<workload::OwnedProblem> parsed =
        io::read_problem(buffer.str());
    if (!parsed) return input_error(input, parsed.error().message);
    owned = std::move(parsed).value();
  } else {
    return usage();
  }

  if (output == "--problem") {
    return emit(out_path, io::write_problem(owned.problem)) ? 0 : 2;
  }

  Expected<Schedule> result =
      kind == HeuristicKind::kHybrid
          ? [&]() -> Expected<Schedule> {
              // Automatic redundancy trade-off search.
              Expected<HybridResult> hybrid = schedule_hybrid(owned.problem);
              if (!hybrid) return hybrid.error();
              return std::move(hybrid).value().schedule;
            }()
          : schedule(owned.problem, kind);
  if (!result) {
    std::fprintf(stderr, "scheduling failed (%s): %s\n",
                 to_string(result.error().code).c_str(),
                 result.error().message.c_str());
    return 1;
  }
  const Schedule& sched = result.value();
  for (const std::string& issue : validate(sched)) {
    std::fprintf(stderr, "validator: %s\n", issue.c_str());
  }

  std::string text;
  if (output == "--text") {
    text = to_text(sched);
  } else if (output == "--gantt") {
    text = to_gantt(sched);
  } else if (output == "--json") {
    text = io::to_json(sched);
  } else if (output == "--csv") {
    text = io::to_csv(sched);
  } else if (output == "--exec") {
    text = emit_c(generate_executive(sched), sched);
  } else if (output == "--analyze") {
    const ScheduleMetrics m = compute_metrics(sched);
    const TransientReport transient = analyze_transient(sched);
    auto line = [&text](const char* format, auto... args) {
      const int n = std::snprintf(nullptr, 0, format, args...);
      const std::size_t at = text.size();
      text.resize(at + static_cast<std::size_t>(n) + 1);
      std::snprintf(text.data() + at, static_cast<std::size_t>(n) + 1,
                    format, args...);
      text.pop_back();  // the terminator snprintf wrote
    };
    line("heuristic            %s\n", to_string(sched.kind()).c_str());
    line("makespan             %s\n", time_to_string(m.makespan).c_str());
    line("min iteration period %s\n", time_to_string(m.min_period).c_str());
    line("replicas / transfers %zu / %zu (+%zu passive)\n", m.replicas,
         m.inter_processor_comms, m.passive_comms);
    line("nominal response     %s\n",
         time_to_string(transient.nominal_response).c_str());
    line("worst 1-failure resp %s (%.2fx, victim %s)\n",
         time_to_string(transient.worst_response).c_str(),
         transient.worst_stretch(),
         transient.worst_victim.valid()
             ? owned.architecture->processor(transient.worst_victim)
                   .name.c_str()
             : "-");
    if (owned.architecture->processor_count() <= 12) {
      for (const double p : {0.001, 0.01, 0.1}) {
        line("reliability @ p=%-5g %.6f\n", p,
             analyze_reliability(sched, p).iteration_reliability);
      }
    }
  }
  return emit(out_path, text) ? 0 : 2;
}
