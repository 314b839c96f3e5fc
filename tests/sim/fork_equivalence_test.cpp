// Fork-equivalence: the snapshotable Branch API (begin / advance_until /
// inject / fork / finish) must be indistinguishable from Simulator::run —
// bit-identical traces, response times, and detections — no matter how
// the same scenario is sliced into prefix + injections. The certifier and
// the transient analyzer both rest on this. So does the certifier's leaf
// path (fork_into a reused arena / inject / finish_summary), pinned
// against finish(fork + inject) at every branch point.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/problem_format.hpp"
#include "sched/heuristics.hpp"
#include "sched/timeouts.hpp"
#include "sim/simulator.hpp"
#include "tuning/transient_analysis.hpp"
#include "workload/paper_examples.hpp"
#include "workload/random_arch.hpp"

namespace ftsched {
namespace {

using workload::OwnedProblem;

void expect_identical(const IterationResult& a, const IterationResult& b) {
  ASSERT_EQ(a.trace.events().size(), b.trace.events().size());
  for (std::size_t i = 0; i < a.trace.events().size(); ++i) {
    EXPECT_TRUE(a.trace.events()[i] == b.trace.events()[i])
        << "trace diverges at event " << i;
  }
  EXPECT_EQ(a.all_outputs_produced, b.all_outputs_produced);
  EXPECT_EQ(a.response_time, b.response_time);  // exact, not epsilon
  EXPECT_EQ(a.detected_failures, b.detected_failures);
}

/// The mid-run events of `scenario` — crashes, link deaths, and silent
/// windows (keyed by their opening edge) — injected into a branch seeded
/// with everything else; `advance` interleaves advance_until up to each
/// injection instant (false = inject all upfront against the unexecuted
/// prologue).
IterationResult replay_forked(const Simulator& simulator,
                              const FailureScenario& scenario, bool advance) {
  FailureScenario base = scenario;
  base.events.clear();
  base.link_events.clear();
  base.silent_windows.clear();
  Simulator::Branch branch = simulator.begin(base);

  struct Injection {
    Time time = 0;
    int cls = 0;  // 0 = crash, 1 = link death, 2 = silent window
    std::size_t index = 0;
  };
  std::vector<Injection> order;
  for (std::size_t i = 0; i < scenario.events.size(); ++i) {
    order.push_back({scenario.events[i].time, 0, i});
  }
  for (std::size_t i = 0; i < scenario.link_events.size(); ++i) {
    order.push_back({scenario.link_events[i].time, 1, i});
  }
  for (std::size_t i = 0; i < scenario.silent_windows.size(); ++i) {
    order.push_back({scenario.silent_windows[i].from, 2, i});
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Injection& a, const Injection& b) {
                     return time_lt(a.time, b.time);
                   });
  for (const Injection& injection : order) {
    if (advance) simulator.advance_until(branch, injection.time);
    if (injection.cls == 1) {
      simulator.inject(branch, scenario.link_events[injection.index]);
    } else if (injection.cls == 2) {
      simulator.inject(branch, scenario.silent_windows[injection.index]);
    } else {
      simulator.inject(branch, scenario.events[injection.index]);
    }
  }
  return simulator.finish(std::move(branch));
}

std::vector<FailureScenario> interesting_scenarios(const Schedule& schedule) {
  const Time makespan = schedule.makespan();
  std::vector<FailureScenario> scenarios;
  scenarios.push_back({});
  scenarios.push_back(FailureScenario::dead_from_start({ProcessorId{1}}));
  scenarios.push_back(FailureScenario::crash(ProcessorId{0}, makespan / 3));
  scenarios.push_back(FailureScenario::crash(ProcessorId{1}, makespan / 2));
  {
    // Double crash at distinct instants plus a silent window.
    FailureScenario scenario;
    scenario.events.push_back(FailureEvent{ProcessorId{0}, makespan / 4});
    scenario.events.push_back(
        FailureEvent{ProcessorId{2}, makespan * 2 / 3});
    scenario.silent_windows.push_back(
        SilentWindow{ProcessorId{1}, makespan / 5, makespan / 2});
    scenarios.push_back(std::move(scenario));
  }
  {
    // Simultaneous crashes: same instant, two victims.
    FailureScenario scenario;
    scenario.events.push_back(FailureEvent{ProcessorId{0}, makespan / 2});
    scenario.events.push_back(FailureEvent{ProcessorId{2}, makespan / 2});
    scenarios.push_back(std::move(scenario));
  }
  {
    // A link death mid-run alongside a processor crash.
    FailureScenario scenario;
    scenario.events.push_back(FailureEvent{ProcessorId{1}, makespan / 2});
    scenario.link_events.push_back(
        LinkFailureEvent{LinkId{0}, makespan / 4});
    scenarios.push_back(std::move(scenario));
  }
  {
    // A silent window with no other fault: blocked sends resume at the
    // closing edge, watch chains may fire meanwhile.
    FailureScenario scenario;
    scenario.silent_windows.push_back(
        SilentWindow{ProcessorId{0}, makespan / 6, makespan / 2});
    scenarios.push_back(std::move(scenario));
  }
  {
    // Same-instant crash and window opening on distinct processors (the
    // certifier explores these as one canonical same-instant pair).
    FailureScenario scenario;
    scenario.events.push_back(FailureEvent{ProcessorId{2}, makespan / 3});
    scenario.silent_windows.push_back(
        SilentWindow{ProcessorId{0}, makespan / 3, makespan});
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

void check_schedule(const Schedule& schedule, SimOptions options = {}) {
  const Simulator simulator(schedule, options);
  for (const FailureScenario& scenario : interesting_scenarios(schedule)) {
    const IterationResult scratch = simulator.run(scenario);
    // Mode 1: the whole scenario seeds the branch.
    expect_identical(simulator.finish(simulator.begin(scenario)), scratch);
    // Mode 2: mid-run events injected upfront, prologue unexecuted.
    expect_identical(replay_forked(simulator, scenario, false), scratch);
    // Mode 3: prefix executed incrementally up to each injection.
    expect_identical(replay_forked(simulator, scenario, true), scratch);
  }
}

TEST(ForkEquivalence, PaperExample1Solution1) {
  const OwnedProblem ex = workload::paper_example1();
  check_schedule(schedule_solution1(ex.problem).value());
}

TEST(ForkEquivalence, PaperExample1Base) {
  const OwnedProblem ex = workload::paper_example1();
  check_schedule(schedule_base(ex.problem).value());
}

TEST(ForkEquivalence, PaperExample2Solution2) {
  const OwnedProblem ex = workload::paper_example2();
  check_schedule(schedule_solution2(ex.problem).value());
}

TEST(ForkEquivalence, RandomProblems) {
  for (const std::uint64_t seed : {7u, 19u, 40u}) {
    workload::RandomProblemParams params;
    params.dag.operations = 14;
    params.processors = 4;
    params.failures_to_tolerate = 1;
    params.seed = seed;
    const OwnedProblem ex = workload::random_problem(params);
    for (const HeuristicKind kind :
         {HeuristicKind::kSolution1, HeuristicKind::kSolution2}) {
      const auto result = schedule(ex.problem, kind);
      ASSERT_TRUE(result.has_value()) << result.error().message;
      SCOPED_TRACE(to_string(kind) + " seed " + std::to_string(seed));
      check_schedule(result.value());
    }
  }
}

TEST(ForkEquivalence, CalendarSchedulerMatchesScratchRuns) {
  // The whole begin/advance/inject/fork/finish surface over the calendar
  // event queue: forking deep-copies the calendar's slot arrays and free
  // list, and every sliced replay must still match the from-scratch run.
  const OwnedProblem ex1 = workload::paper_example1();
  check_schedule(schedule_solution1(ex1.problem).value(),
                 {EventSchedulerKind::kCalendar});
  const OwnedProblem ex2 = workload::paper_example2();
  check_schedule(schedule_solution2(ex2.problem).value(),
                 {EventSchedulerKind::kCalendar});
}

TEST(ForkEquivalence, SchedulersAgreeAcrossForkModes) {
  // Heap and calendar simulators over the same schedule: a branch forked
  // and finished under one queue implementation equals a from-scratch run
  // under the other — queue choice is invisible end to end.
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const Simulator heap(schedule, {EventSchedulerKind::kBinaryHeap});
  const Simulator calendar(schedule, {EventSchedulerKind::kCalendar});
  for (const FailureScenario& scenario : interesting_scenarios(schedule)) {
    expect_identical(calendar.finish(calendar.begin(scenario)),
                     heap.run(scenario));
    expect_identical(replay_forked(calendar, scenario, true),
                     heap.run(scenario));
  }
}

TEST(ForkEquivalence, ForksAreIndependent) {
  // Two branches forked from one advanced cursor evolve independently:
  // finishing one (or forking it again) must not disturb the other, and
  // each must equal its from-scratch run.
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const Simulator simulator(schedule);
  const Time mid = schedule.makespan() / 2;

  Simulator::Branch cursor = simulator.begin();
  simulator.advance_until(cursor, mid);

  Simulator::Branch a = cursor.fork();
  Simulator::Branch b = cursor.fork();
  simulator.inject(a, FailureEvent{ProcessorId{0}, mid});
  simulator.inject(b, FailureEvent{ProcessorId{2}, mid});

  // Finish a twice via an extra fork before touching b at all.
  const IterationResult a1 = simulator.finish(a.fork());
  const IterationResult a2 = simulator.finish(std::move(a));
  expect_identical(a1, a2);
  expect_identical(a1,
                   simulator.run(FailureScenario::crash(ProcessorId{0}, mid)));
  expect_identical(simulator.finish(std::move(b)),
                   simulator.run(FailureScenario::crash(ProcessorId{2}, mid)));
  // The cursor itself is still a valid failure-free branch.
  expect_identical(simulator.finish(std::move(cursor)), simulator.run());
}

TEST(ForkEquivalence, InjectIntoExecutedPrefixThrows) {
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const Simulator simulator(schedule);
  Simulator::Branch branch = simulator.begin();
  simulator.advance_until(branch, schedule.makespan());
  EXPECT_THROW(simulator.inject(branch, FailureEvent{ProcessorId{0}, 0}),
               std::invalid_argument);
}

TEST(ForkEquivalence, InjectSilentWindowGuards) {
  // The window's opening edge carries the same executed_until guard as a
  // crash instant, and degenerate (non-positive-length) windows are
  // rejected outright.
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const Simulator simulator(schedule);
  const Time makespan = schedule.makespan();
  Simulator::Branch branch = simulator.begin();
  simulator.advance_until(branch, makespan / 2);
  EXPECT_THROW(
      simulator.inject(branch, SilentWindow{ProcessorId{0}, 0, makespan}),
      std::invalid_argument);
  EXPECT_THROW(
      simulator.inject(branch,
                       SilentWindow{ProcessorId{0}, makespan, makespan}),
      std::invalid_argument);
  // A well-formed future window is accepted and the branch still runs.
  simulator.inject(branch,
                   SilentWindow{ProcessorId{0}, makespan * 0.75, makespan});
  const IterationResult result = simulator.finish(std::move(branch));
  EXPECT_FALSE(result.trace.events().empty());
}

/// The leaf digest must equal the traced finish of the same branch on
/// every field the certifier reads.
void expect_same_leaf(const IterationSummary& leaf,
                      const IterationResult& reference) {
  EXPECT_EQ(leaf.all_outputs_produced, reference.all_outputs_produced);
  EXPECT_EQ(leaf.response_time, reference.response_time);  // exact
  EXPECT_EQ(leaf.silence_deferral, reference.silence_deferral);
  EXPECT_EQ(leaf.op_completions, reference.op_completions);
  EXPECT_EQ(leaf.events_executed, reference.events_executed);
  EXPECT_EQ(leaf.detected_failures, reference.detected_failures);
}

/// Static watch-chain deadlines (extra branch points of timeout-driven
/// schedules, as in the certifier).
std::vector<Time> chain_deadlines(const Schedule& schedule) {
  const RoutingTable routing(*schedule.problem().architecture);
  const TimeoutTable timeouts(schedule, routing);
  std::vector<Time> out;
  for (const TimeoutChain& chain : timeouts.chains()) {
    for (const TimeoutEntry& entry : chain.entries) {
      out.push_back(entry.deadline);
    }
  }
  return out;
}

/// Drives the leaf path through `arena` at every branch point of several
/// prefixes of `schedule` — the certifier's representative instants of
/// each prefix's own leaf run — with every fault class on every victim;
/// returns the number of leaves checked. The prefixes differ in state
/// size (dynamic backup transfers after a crash, one or two silent
/// windows), and the arena is reused across all of them and across
/// schedules, so state a reload failed to overwrite would show. `traced`
/// takes the interior-node path on the same branches (a traced fork_into
/// finished in place): its trace must match too.
std::size_t check_leaf_arena(const Schedule& schedule,
                             Simulator::Branch& arena,
                             Simulator::Branch& traced) {
  const Simulator simulator(schedule);
  const Time makespan = schedule.makespan();
  const std::size_t procs =
      schedule.problem().architecture->processor_count();
  const std::size_t links = schedule.problem().architecture->link_count();
  const std::vector<Time> deadlines = chain_deadlines(schedule);

  std::vector<FailureScenario> prefixes;
  {
    FailureScenario two_windows;
    two_windows.silent_windows.push_back(
        SilentWindow{ProcessorId{0}, 0, makespan / 3});
    two_windows.silent_windows.push_back(
        SilentWindow{ProcessorId{1}, makespan / 4, makespan / 2});
    prefixes.push_back(std::move(two_windows));
  }
  prefixes.push_back(FailureScenario::crash(ProcessorId{0}, makespan / 4));
  prefixes.push_back({});
  {
    FailureScenario one_window;
    one_window.silent_windows.push_back(
        SilentWindow{
            ProcessorId{static_cast<ProcessorId::underlying_type>(procs - 1)},
            makespan / 5, makespan});
    prefixes.push_back(std::move(one_window));
  }

  std::size_t leaves = 0;
  IterationSummary leaf;
  for (const FailureScenario& prefix : prefixes) {
    // The dead-at-start leaf path: a from-scratch run into the arena.
    simulator.run_summary(prefix, arena, leaf);
    expect_same_leaf(leaf, simulator.run(prefix));

    const std::vector<Time> points = representative_instants(
        simulator.run(prefix).trace, 0, deadlines);
    Simulator::Branch cursor = simulator.begin(prefix);
    for (const Time c : points) {
      simulator.advance_until(cursor, c);
      const auto check = [&](const auto& fault) {
        SCOPED_TRACE("branch point " + std::to_string(c));
        Simulator::Branch child = cursor.fork();
        simulator.inject(child, fault);
        const IterationResult reference = simulator.finish(std::move(child));
        cursor.fork_into(arena);
        simulator.inject(arena, fault);
        simulator.finish_summary(arena, leaf);
        expect_same_leaf(leaf, reference);
        EXPECT_TRUE(arena.trace().events().empty());
        cursor.fork_into(traced, /*with_trace=*/true);
        simulator.inject(traced, fault);
        simulator.finish_summary(traced, leaf);
        expect_same_leaf(leaf, reference);
        EXPECT_TRUE(traced.trace().events() == reference.trace.events());
        ++leaves;
      };
      for (std::size_t p = 0; p < procs; ++p) {
        const ProcessorId victim{static_cast<ProcessorId::underlying_type>(p)};
        check(FailureEvent{victim, c});
        check(SilentWindow{victim, c, c + makespan / 3});
      }
      for (std::size_t l = 0; l < links; ++l) {
        check(LinkFailureEvent{LinkId{static_cast<LinkId::underlying_type>(l)},
                               c});
      }
    }
  }
  return leaves;
}

TEST(ForkEquivalence, LeafArenaMatchesTracedFinishAtEveryBranchPoint) {
  const OwnedProblem ex1 = workload::paper_example1();
  const OwnedProblem ex2 = workload::paper_example2();
  std::ifstream file(std::string(FTSCHED_SOURCE_DIR) + "/data/certify_k2.ft");
  ASSERT_TRUE(file.good());
  std::stringstream text;
  text << file.rdbuf();
  Expected<OwnedProblem> k2 = io::read_problem(text.str());
  ASSERT_TRUE(k2.has_value()) << k2.error().message;

  // One pair of arenas for all three schedules: fig17 (Solution 1 on a
  // bus, with timeouts and elected backup sends), fig22 (Solution 2
  // point-to-point) and the 4-processor certify_k2 workload.
  Simulator::Branch arena;
  Simulator::Branch traced;
  std::size_t leaves = 0;
  {
    SCOPED_TRACE("fig17");
    leaves += check_leaf_arena(schedule_solution1(ex1.problem).value(), arena,
                               traced);
  }
  {
    SCOPED_TRACE("fig22");
    leaves += check_leaf_arena(schedule_solution2(ex2.problem).value(), arena,
                               traced);
  }
  {
    SCOPED_TRACE("certify_k2");
    leaves += check_leaf_arena(schedule_solution2(k2.value().problem).value(),
                               arena, traced);
  }
  EXPECT_GT(leaves, 1000u);
}

TEST(ForkEquivalence, EmptyArenaIsADrainedBranch) {
  const Simulator::Branch arena;
  EXPECT_TRUE(is_infinite(arena.frontier()));
  EXPECT_EQ(arena.executed_events(), 0u);
  EXPECT_TRUE(arena.trace().events().empty());
}

TEST(ForkEquivalence, BeginIntoARecycledBranchMatchesAFreshOne) {
  // Restarting a branch in place (the certifier's task roots) after it ran
  // another, larger scenario to the end must equal a fresh begin().
  const OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const Simulator simulator(schedule);
  const Time makespan = schedule.makespan();
  FailureScenario big = FailureScenario::crash(ProcessorId{0}, makespan / 4);
  big.silent_windows.push_back(
      SilentWindow{ProcessorId{1}, makespan / 5, makespan / 2});
  Simulator::Branch recycled = simulator.begin(big);
  IterationSummary ignored;
  simulator.finish_summary(recycled, ignored);
  for (const FailureScenario& scenario : interesting_scenarios(schedule)) {
    simulator.begin(scenario, recycled);
    expect_identical(simulator.finish(recycled.fork()),
                     simulator.run(scenario));
  }
}

}  // namespace
}  // namespace ftsched
