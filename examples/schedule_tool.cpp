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
// flag, missing operand, unwritable -o file or stdout), 3 = input file
// unreadable or malformed (the diagnostic names the file and the offending
// line) — the same codes as campaign_tool.
#include <cstdio>
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

int run(int argc, char** argv) {
  io::ProblemFlags problem;
  std::string output = "--gantt";
  std::string out_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (problem.parse(arg)) continue;
    if (arg == "--hybrid") {
      problem.kind = HeuristicKind::kHybrid;
    } else if (arg == "--text" || arg == "--gantt" || arg == "--json" ||
               arg == "--csv" || arg == "--exec" || arg == "--problem" ||
               arg == "--analyze") {
      output = arg;
    } else if (arg == "-o") {
      if (++i >= argc) return usage();
      out_path = argv[i];
    } else {
      return usage();
    }
  }

  if (!problem.given()) return usage();
  const Expected<workload::OwnedProblem> owned = problem.load();
  if (!owned) {
    return io::input_error("schedule_tool", problem.file,
                           owned.error().message);
  }
  if (output == "--problem") {
    return io::emit(out_path, io::write_problem(owned->problem)) ? 0 : 2;
  }

  Expected<Schedule> result =
      problem.kind == HeuristicKind::kHybrid
          ? [&]() -> Expected<Schedule> {
              // Automatic redundancy trade-off search.
              Expected<HybridResult> hybrid = schedule_hybrid(owned->problem);
              if (!hybrid) return hybrid.error();
              return std::move(hybrid).value().schedule;
            }()
          : schedule(owned->problem, problem.kind);
  if (!result) {
    io::report_scheduling_failure(result.error());
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
             ? owned->architecture->processor(transient.worst_victim)
                   .name.c_str()
             : "-");
    if (owned->architecture->processor_count() <= 12) {
      for (const double p : {0.001, 0.01, 0.1}) {
        line("reliability @ p=%-5g %.6f\n", p,
             analyze_reliability(sched, p).iteration_reliability);
      }
    }
  }
  return io::emit(out_path, text) ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  return io::finish_stdout("schedule_tool", run(argc, argv));
}
