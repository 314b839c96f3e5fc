// Trade-off explorer: a small CLI that generates a random problem from
// command-line parameters, runs all three heuristics, and fault-injects the
// results — the quickest way to explore the paper's design space (§5.6)
// on your own workload shapes.
//
//   tradeoff_explorer [ops] [procs] [K] [ccr] [arch: bus|p2p|ring|chain|star]
//                     [seed]
//
// Every argument is optional; defaults are 20 ops, 4 procs, K=1, ccr=0.5,
// bus, seed 1. A malformed or out-of-range operand exits 2 with a
// diagnostic.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/text.hpp"
#include "io/cli_util.hpp"
#include "sched/heuristics.hpp"
#include "sched/metrics.hpp"
#include "sched/validate.hpp"
#include "sim/simulator.hpp"
#include "workload/random_arch.hpp"

using namespace ftsched;

namespace {

workload::ArchKind parse_arch(const std::string& name) {
  if (name == "bus") return workload::ArchKind::kBus;
  if (name == "p2p") return workload::ArchKind::kFullyConnected;
  if (name == "ring") return workload::ArchKind::kRing;
  if (name == "chain") return workload::ArchKind::kChain;
  if (name == "star") return workload::ArchKind::kStar;
  std::fprintf(stderr, "unknown architecture '%s'\n", name.c_str());
  std::exit(2);
}

/// Exits 2 with a diagnostic unless `status` is kOk.
void require_operand(io::ParseStatus status, const char* what,
                     const char* text) {
  if (status == io::ParseStatus::kOk) return;
  std::fprintf(stderr, "tradeoff_explorer: %s operand \"%s\" is %s\n", what,
               text,
               status == io::ParseStatus::kOutOfRange ? "out of range"
                                                      : "malformed");
  std::exit(2);
}

/// Positional integer operand `index`, or `fallback` when absent.
long integer_operand(int argc, char** argv, int index, const char* what,
                     long fallback) {
  if (argc <= index) return fallback;
  long value = 0;
  require_operand(io::parse_number(argv[index], value), what, argv[index]);
  return value;
}

/// Masked fraction over all failure subsets of size <= K at mid-iteration.
std::string masking(const Schedule& schedule, int k) {
  if (k == 0) return "-";
  const Simulator simulator(schedule);
  int masked = 0;
  int total = 0;
  for (const auto& subset : failure_subsets(
           schedule.problem().architecture->processor_count(),
           static_cast<std::size_t>(k))) {
    FailureScenario scenario;
    for (ProcessorId proc : subset) {
      scenario.events.push_back(
          FailureEvent{proc, schedule.makespan() / 2});
    }
    ++total;
    masked += simulator.run(scenario).all_outputs_produced ? 1 : 0;
  }
  return std::to_string(masked) + "/" + std::to_string(total);
}

}  // namespace

int main(int argc, char** argv) {
  workload::RandomProblemParams params;
  params.dag.operations =
      static_cast<std::size_t>(integer_operand(argc, argv, 1, "ops", 20));
  params.processors =
      static_cast<std::size_t>(integer_operand(argc, argv, 2, "procs", 4));
  params.failures_to_tolerate =
      static_cast<int>(integer_operand(argc, argv, 3, "K", 1));
  params.ccr = 0.5;
  if (argc > 4) {
    require_operand(io::parse_nonnegative(argv[4], params.ccr), "ccr",
                    argv[4]);
  }
  params.arch_kind = argc > 5 ? parse_arch(argv[5]) : workload::ArchKind::kBus;
  params.seed =
      static_cast<std::uint64_t>(integer_operand(argc, argv, 6, "seed", 1));
  params.dag.width = 4;
  params.restrict_probability = 0.1;

  const workload::OwnedProblem ex = workload::random_problem(params);
  std::printf("random problem: %zu operations, %zu processors, K=%d, "
              "ccr=%.2f, seed=%llu\n\n",
              ex.algorithm->operation_count(),
              ex.architecture->processor_count(),
              params.failures_to_tolerate, params.ccr,
              static_cast<unsigned long long>(params.seed));

  std::vector<std::vector<std::string>> table;
  table.push_back({"heuristic", "makespan", "comms", "passive", "proc util",
                   "masked<=K", "validator"});
  for (const HeuristicKind kind :
       {HeuristicKind::kBase, HeuristicKind::kSolution1,
        HeuristicKind::kSolution2}) {
    const auto result = schedule(ex.problem, kind);
    if (!result) {
      table.push_back({to_string(kind), "-", "-", "-", "-", "-",
                       result.error().message});
      continue;
    }
    const ScheduleMetrics m = compute_metrics(result.value());
    char util[32];
    std::snprintf(util, sizeof util, "%.0f%%",
                  100 * m.processor_utilisation);
    table.push_back(
        {to_string(kind), time_to_string(m.makespan),
         std::to_string(m.inter_processor_comms),
         std::to_string(m.passive_comms), util,
         kind == HeuristicKind::kBase
             ? "-"
             : masking(result.value(), params.failures_to_tolerate),
         validate(result.value()).empty() ? "clean" : "VIOLATIONS"});
  }
  std::fputs(render_table(table).c_str(), stdout);
  std::printf(
      "\nhint: raise ccr to see the bus punish solution 2's duplicated "
      "transfers; switch to p2p to see the ranking flip (§5.6 criterion "
      "4).\n");
  return 0;
}
