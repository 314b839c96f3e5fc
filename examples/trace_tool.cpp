// trace_tool: renders ftsched artefacts as Chrome trace-event JSON (open
// the output in chrome://tracing or https://ui.perfetto.dev) and dumps the
// scheduler's decision log:
//
//   ./trace_tool gantt --example1 --solution1 -o fig17.trace.json
//   ./trace_tool sim --example1 --solution1 --fail P1@2 -o faulty.trace.json
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
// operand or an unwritable output file or stdout included, each with a
// diagnostic), 3 = input file unreadable or malformed (the diagnostic names
// the file and the offending line) — the same codes as campaign_tool.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "io/cli_util.hpp"
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
      "       profile: [--scenarios N] [--threads N] [--seed N]\n"
      "\n"
      "exit status: 0 ok, 2 usage or I/O error (an unwritable -o FILE\n"
      "included), 3 input file unreadable or malformed (diagnostic names\n"
      "the file and the offending line).\n");
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

/// Every flag after the subcommand, parsed once.
struct Options {
  io::ProblemFlags problem;
  std::string out_file;
  std::vector<std::pair<std::string, Time>> crashes;  // --fail name@time
  std::vector<std::string> dead;                      // --dead name
  long scenarios = 2000;
  long threads = 0;
  long seed = 0;
};

/// argv[2..] -> Options; false after a usage error has been reported.
bool parse(int argc, char** argv, Options& o) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    long number = 0;
    if (o.problem.parse(arg)) continue;
    if (arg == "-o" && i + 1 < argc) {
      o.out_file = argv[++i];
    } else if (arg == "--fail" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t at = spec.find('@');
      double time = 0;
      const io::ParseStatus status =
          at == std::string::npos
              ? io::ParseStatus::kMalformed
              : io::parse_nonnegative(spec.c_str() + at + 1, time);
      if (status == io::ParseStatus::kOutOfRange) {
        return out_of_range("--fail", spec.c_str());
      }
      if (status != io::ParseStatus::kOk) {
        std::fprintf(stderr, "--fail wants PROC@TIME, got %s\n",
                     spec.c_str());
        return false;
      }
      o.crashes.emplace_back(spec.substr(0, at), time);
    } else if (arg == "--dead" && i + 1 < argc) {
      o.dead.emplace_back(argv[++i]);
    } else if (arg == "--scenarios" && i + 1 < argc &&
               parse_number("--scenarios", argv[++i], number)) {
      o.scenarios = number;
    } else if (arg == "--threads" && i + 1 < argc &&
               parse_number("--threads", argv[++i], number)) {
      o.threads = number;
    } else if (arg == "--seed" && i + 1 < argc &&
               parse_number("--seed", argv[++i], number)) {
      o.seed = number;
    } else {
      usage();
      return false;
    }
  }
  return true;
}

/// One simulated iteration under the --fail crashes and --dead processors
/// as an actual-execution timeline; false after naming an unknown
/// processor.
bool sim_trace(const Options& o, const Schedule& sched, std::string& out) {
  const Problem& problem = sched.problem();
  auto known = [&](const std::string& name, ProcessorId& proc) {
    proc = problem.architecture->find_processor(name);
    if (!proc.valid()) {
      std::fprintf(stderr, "unknown processor %s\n", name.c_str());
    }
    return proc.valid();
  };
  FailureScenario scenario;
  ProcessorId proc;
  for (const auto& [name, time] : o.crashes) {
    if (!known(name, proc)) return false;
    scenario.events.push_back(FailureEvent{proc, time});
  }
  for (const std::string& name : o.dead) {
    if (!known(name, proc)) return false;
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
  out = obs::chrome_trace_from_sim_trace(iteration.trace, *problem.algorithm,
                                         *problem.architecture);
  return true;
}

/// Hammers the schedule with a campaign and returns the spans recorded
/// since main() switched the profiler on.
std::string profile_trace(const Options& o, const Schedule& sched) {
  campaign::CampaignOptions options = io::default_campaign_options();
  options.scenarios = static_cast<std::size_t>(o.scenarios);
  options.threads = static_cast<unsigned>(o.threads);
  options.seed = static_cast<std::uint64_t>(o.seed);
  const campaign::CampaignReport report =
      campaign::run_campaign(sched, options);
  obs::Profiler::global().enable(false);
  std::fprintf(stderr, "campaign: %zu scenarios on %u threads, %.0f/s\n",
               report.scenarios_run, report.threads_used,
               report.scenarios_per_second());
  return obs::chrome_trace_from_spans(obs::Profiler::global().drain());
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode != "gantt" && mode != "sim" && mode != "profile" &&
      mode != "explain") {
    return usage();
  }
  Options o;
  if (!parse(argc, argv, o)) return 2;
  if (!o.problem.given()) return usage();
  const Expected<workload::OwnedProblem> owned = o.problem.load();
  if (!owned) {
    return io::input_error("trace_tool", o.problem.file,
                           owned.error().message);
  }

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
      schedule(owned->problem, o.problem.kind, sched_options);
  if (!result) {
    io::report_scheduling_failure(result.error());
    return 2;
  }
  const Schedule& sched = *result;
  std::fprintf(stderr, "schedule: %s, K=%d, makespan %s\n",
               to_string(sched.kind()).c_str(), sched.failures_tolerated(),
               time_to_string(sched.makespan()).c_str());

  std::string content;
  if (mode == "gantt") {
    content = obs::chrome_trace_from_schedule(sched);
  } else if (mode == "explain") {
    content = explain.to_text(owned->problem);
  } else if (mode == "sim") {
    if (!sim_trace(o, sched, content)) return 2;
  } else {
    content = profile_trace(o, sched);
  }
  if (!io::emit(o.out_file, content)) return 2;
  if (!o.out_file.empty()) {
    std::fprintf(stderr, "wrote %s\n", o.out_file.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return io::finish_stdout("trace_tool", run(argc, argv));
}
