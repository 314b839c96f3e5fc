// trace_tool: renders ftsched artefacts as Chrome trace-event JSON (open
// the output in chrome://tracing or https://ui.perfetto.dev) and dumps the
// scheduler's decision log:
//
//   ./trace_tool gantt --example1 --solution1 -o fig17.trace.json
//   ./trace_tool sim --example1 --solution1 --fail P1@2 -o faulty.trace.json
//   ./trace_tool sim --example2 --solution2 --dead P3 --replay repro.scenario
//   ./trace_tool profile --example1 --solution1 --scenarios 5000 --threads 4
//   ./trace_tool explain --example1 --solution1
//
// Subcommands:
//   gantt    the static schedule, one timeline row per processor and link;
//   sim      one simulated iteration (crashes via --fail, processors dead
//            from the start via --dead) as an actual-execution timeline
//            with timeout / election / failure instants;
//   profile  wall-clock profiling spans of a fault-injection campaign over
//            the schedule, one row per worker thread (needs a build with
//            FTSCHED_OBS=ON to show scheduler/simulator internals);
//   explain  the per-step candidate tables of the list scheduler (text,
//            not JSON): every (operation, processor) pressure evaluation
//            with its sigma components and the decision taken.
//
// Exit status: 0 = ok, 2 = usage or I/O error (an out-of-range numeric
// operand or an unwritable output file included, each with a diagnostic).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "io/cli_util.hpp"
#include "io/problem_format.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/span.hpp"
#include "sched/explain.hpp"
#include "sched/heuristics.hpp"
#include "sim/simulator.hpp"

using namespace ftsched;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: trace_tool <gantt | sim | profile | explain>\n"
      "                  <file | --example1 | --example2>\n"
      "                  [--base | --solution1 | --solution2] [-o FILE]\n"
      "       sim:     [--fail PROC@TIME]... [--dead PROC]...\n"
      "       profile: [--scenarios N] [--threads N] [--seed N]\n");
  return 2;
}

/// Reports an operand that looks numeric but overflows: saturating it
/// would silently run a different command than the one typed.
bool out_of_range(const char* flag, const char* text) {
  std::fprintf(stderr, "trace_tool: %s operand \"%s\" is out of range\n",
               flag, text);
  return false;
}

bool parse_number(const char* flag, const char* text, long& out) {
  switch (io::parse_number(text, out)) {
    case io::ParseStatus::kOk: return true;
    case io::ParseStatus::kOutOfRange: return out_of_range(flag, text);
    case io::ParseStatus::kMalformed: break;
  }
  return false;
}

bool emit(const std::string& path, const std::string& content) {
  if (path.empty()) {
    std::fputs(content.c_str(), stdout);
    return true;
  }
  if (!io::write_file(path, content)) return false;
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode != "gantt" && mode != "sim" && mode != "profile" &&
      mode != "explain") {
    return usage();
  }

  std::string input;
  std::string out_file;
  bool example1 = false;
  bool example2 = false;
  HeuristicKind kind = HeuristicKind::kSolution1;
  std::vector<std::pair<std::string, Time>> crashes;  // --fail name@time
  std::vector<std::string> dead;                      // --dead name
  long scenarios = 2000;
  long threads = 0;
  long seed = 0;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    long number = 0;
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
    } else if (arg == "-o" && i + 1 < argc) {
      out_file = argv[++i];
    } else if (arg == "--fail" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t at = spec.find('@');
      double time = 0;
      const io::ParseStatus status =
          at == std::string::npos
              ? io::ParseStatus::kMalformed
              : io::parse_nonnegative(spec.c_str() + at + 1, time);
      if (status == io::ParseStatus::kOutOfRange) {
        out_of_range("--fail", spec.c_str());
        return 2;
      }
      if (status != io::ParseStatus::kOk) {
        std::fprintf(stderr, "--fail wants PROC@TIME, got %s\n",
                     spec.c_str());
        return 2;
      }
      crashes.emplace_back(spec.substr(0, at), time);
    } else if (arg == "--dead" && i + 1 < argc) {
      dead.emplace_back(argv[++i]);
    } else if (arg == "--scenarios" && i + 1 < argc &&
               parse_number("--scenarios", argv[++i], number)) {
      scenarios = number;
    } else if (arg == "--threads" && i + 1 < argc &&
               parse_number("--threads", argv[++i], number)) {
      threads = number;
    } else if (arg == "--seed" && i + 1 < argc &&
               parse_number("--seed", argv[++i], number)) {
      seed = number;
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
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", input.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    Expected<workload::OwnedProblem> parsed = io::read_problem(buffer.str());
    if (!parsed) {
      std::fprintf(stderr, "%s: %s\n", input.c_str(),
                   parsed.error().message.c_str());
      return 2;
    }
    owned = std::move(parsed).value();
  } else {
    return usage();
  }
  const ArchitectureGraph& arch = *owned.problem.architecture;

  SchedulerOptions sched_options;
  ExplainLog explain;
  if (mode == "explain") sched_options.explain = &explain;
  if (mode == "profile") {
    // Enable before scheduling so the sched.* spans (pressure evaluation,
    // candidate sort, commit) land in the profile alongside the campaign.
    static_cast<void>(obs::Profiler::global().drain());
    obs::Profiler::global().enable(true);
  }

  const Expected<Schedule> result =
      schedule(owned.problem, kind, sched_options);
  if (!result) {
    std::fprintf(stderr, "scheduling failed (%s): %s\n",
                 to_string(result.error().code).c_str(),
                 result.error().message.c_str());
    return 2;
  }
  const Schedule& sched = result.value();
  std::fprintf(stderr, "schedule: %s, K=%d, makespan %s\n",
               to_string(sched.kind()).c_str(), sched.failures_tolerated(),
               time_to_string(sched.makespan()).c_str());

  if (mode == "gantt") {
    return emit(out_file, obs::chrome_trace_from_schedule(sched)) ? 0 : 2;
  }

  if (mode == "explain") {
    return emit(out_file, explain.to_text(owned.problem)) ? 0 : 2;
  }

  if (mode == "sim") {
    FailureScenario scenario;
    for (const auto& [name, time] : crashes) {
      const ProcessorId proc = arch.find_processor(name);
      if (!proc.valid()) {
        std::fprintf(stderr, "unknown processor %s\n", name.c_str());
        return 2;
      }
      scenario.events.push_back(FailureEvent{proc, time});
    }
    for (const std::string& name : dead) {
      const ProcessorId proc = arch.find_processor(name);
      if (!proc.valid()) {
        std::fprintf(stderr, "unknown processor %s\n", name.c_str());
        return 2;
      }
      scenario.failed_at_start.push_back(proc);
    }
    const Simulator simulator(sched);
    const IterationResult iteration = simulator.run(scenario);
    std::fprintf(stderr,
                 "iteration: outputs %s, response %s, %zu timeouts, "
                 "%zu elections\n",
                 iteration.all_outputs_produced ? "produced" : "LOST",
                 time_to_string(iteration.response_time).c_str(),
                 iteration.trace.count(TraceEvent::Kind::kTimeout),
                 iteration.trace.count(TraceEvent::Kind::kElection));
    return emit(out_file,
                obs::chrome_trace_from_sim_trace(
                    iteration.trace, *owned.problem.algorithm, arch))
               ? 0
               : 2;
  }

  // profile: hammer the schedule with a campaign while recording spans.
  campaign::CampaignOptions options;
  options.scenarios = static_cast<std::size_t>(scenarios);
  options.threads = static_cast<unsigned>(threads);
  options.seed = static_cast<std::uint64_t>(seed);
  options.spec.max_iterations = 3;
  options.spec.over_budget_fraction = 0.15;
  options.spec.silence_probability = 0.10;
  options.spec.suspect_probability = 0.10;
  const campaign::CampaignReport report =
      campaign::run_campaign(sched, options);
  obs::Profiler::global().enable(false);
  std::fprintf(stderr, "campaign: %zu scenarios on %u threads, %.0f/s\n",
               report.scenarios_run, report.threads_used,
               report.scenarios_per_second());
  return emit(out_file,
              obs::chrome_trace_from_spans(obs::Profiler::global().drain()))
             ? 0
             : 2;
}
