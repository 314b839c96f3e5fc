// Certification engine throughput: certified branches/sec of the
// shared-prefix forking certifier versus the naive from-scratch replay of
// the exact same branch set, over the paper's Fig. 17 / Fig. 22 schedules
// and a random-DAG matrix. The headline claim gated here (and by the CI
// perf job via BENCH_certify.json): forking + exact dedup certify at
// >= 3x the from-scratch rate. Exit status 1 if the aggregate speedup
// falls short or any certification result is wrong.
#include <chrono>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "campaign/certify.hpp"
#include "sched/heuristics.hpp"
#include "sim/simulator.hpp"
#include "tuning/hybrid.hpp"
#include "workload/paper_examples.hpp"
#include "workload/random_arch.hpp"

using namespace ftsched;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

FailureScenario branch_scenario(const campaign::CertifyBranch& branch) {
  FailureScenario scenario;
  scenario.failed_at_start = branch.dead_at_start;
  scenario.events = branch.crashes;
  return scenario;
}

struct Config {
  std::string name;
  Schedule schedule;
  bool expect_certified = true;
};

struct Measurement {
  double replay_seconds = 0;
  double fork_seconds = 0;
  std::size_t replay_branches = 0;
  std::size_t fork_branches = 0;
};

/// Measures one config `reps` times and keeps the best (least-noisy) run
/// of each mode. The replay baseline simulates the naive enumerator's own
/// branch list from t=0 — identical coverage, no prefix sharing, no dedup.
Measurement measure(const Config& config, int reps, bool& ok) {
  campaign::CertifySpec naive;
  naive.dedup = false;
  naive.collect_branches = true;
  naive.threads = 1;
  campaign::CertifySpec forked;
  forked.threads = 1;

  const Simulator simulator(config.schedule);
  Measurement best;
  for (int rep = 0; rep < reps; ++rep) {
    const campaign::CertifyReport full =
        campaign::certify(config.schedule, naive);
    const campaign::CertifyReport fast =
        campaign::certify(config.schedule, forked);
    ok = ok && full.certified == config.expect_certified &&
         fast.certified == config.expect_certified;

    const auto start = std::chrono::steady_clock::now();
    for (const campaign::CertifyBranch& branch : full.branches_list) {
      const IterationResult run =
          simulator.run(branch_scenario(branch));
      ok = ok && run.all_outputs_produced != branch.outputs_lost;
    }
    const double replay = seconds_since(start);

    if (rep == 0 || replay < best.replay_seconds) {
      best.replay_seconds = replay;
      best.replay_branches = full.branches;
    }
    if (rep == 0 || fast.elapsed_seconds < best.fork_seconds) {
      best.fork_seconds = fast.elapsed_seconds;
      best.fork_branches = fast.branches;
    }
  }
  return best;
}

}  // namespace

int main() {
  bench::header("C2", "exhaustive certification vs from-scratch replay");

  // Problems must outlive the schedules built on them.
  std::deque<workload::OwnedProblem> owned;
  std::vector<Config> configs;
  owned.push_back(workload::paper_example1());
  configs.push_back(
      {"fig17_solution1", schedule_solution1(owned.back().problem).value(),
       true});
  owned.push_back(workload::paper_example2());
  configs.push_back(
      {"fig22_solution2", schedule_solution2(owned.back().problem).value(),
       true});
  // The §5.3 hybrid sits between the two solutions (passive base, a few
  // dependencies flipped active): its branch space differs from both, so
  // it exercises the certifier on a schedule shape neither paper figure
  // covers. It must certify its claimed K like any heuristic output.
  {
    const auto hybrid = schedule_hybrid(owned.back().problem);
    if (!hybrid.has_value()) {
      std::fprintf(stderr, "hybrid config failed to schedule: %s\n",
                   hybrid.error().message.c_str());
      return 1;
    }
    configs.push_back(
        {"fig22_hybrid", std::move(hybrid).value().schedule, true});
  }
  struct RandomCase {
    std::size_t operations;
    std::size_t processors;
    int k;
    std::uint64_t seed;
  };
  for (const RandomCase& rc : {RandomCase{12, 4, 1, 3},
                               RandomCase{16, 5, 1, 8},
                               RandomCase{10, 4, 2, 11}}) {
    workload::RandomProblemParams params;
    params.dag.operations = rc.operations;
    params.processors = rc.processors;
    params.failures_to_tolerate = rc.k;
    params.seed = rc.seed;
    owned.push_back(workload::random_problem(params));
    const auto scheduled = schedule_solution2(owned.back().problem);
    if (!scheduled.has_value()) {
      std::fprintf(stderr, "random config failed to schedule: %s\n",
                   scheduled.error().message.c_str());
      return 1;
    }
    configs.push_back({"random_n" + std::to_string(rc.operations) + "_p" +
                           std::to_string(rc.processors) + "_k" +
                           std::to_string(rc.k),
                       std::move(scheduled).value(), true});
  }

  bench::section("certified branches/sec, fork+dedup vs from-scratch replay");
  std::vector<bench::BenchRecord> records;
  bool ok = true;
  double replay_total = 0;
  double fork_total = 0;
  for (const Config& config : configs) {
    const Measurement m = measure(config, 5, ok);
    const double replay_rate =
        m.replay_seconds > 0
            ? static_cast<double>(m.replay_branches) / m.replay_seconds
            : 0;
    const double fork_rate =
        m.fork_seconds > 0
            ? static_cast<double>(m.fork_branches) / m.fork_seconds
            : 0;
    // Both runs certify the SAME coverage (dedup only merges provably
    // equivalent branches), so the speedup is the wall-time ratio.
    const double speedup =
        m.fork_seconds > 0 ? m.replay_seconds / m.fork_seconds : 0;
    std::printf(
        "%-22s replay %7zu br %8.0f br/s   fork %6zu br %8.0f br/s   "
        "speedup %5.2fx\n",
        config.name.c_str(), m.replay_branches, replay_rate, m.fork_branches,
        fork_rate, speedup);
    replay_total += m.replay_seconds;
    fork_total += m.fork_seconds;

    bench::BenchRecord replay;
    replay.name = "certify";
    replay.params = "config=" + config.name + ";mode=replay";
    replay.wall_ms = m.replay_seconds * 1e3;
    replay.iters = m.replay_branches;
    replay.derived.emplace_back("branches_per_s", replay_rate);
    records.push_back(std::move(replay));
    bench::BenchRecord fork;
    fork.name = "certify";
    fork.params = "config=" + config.name + ";mode=fork";
    fork.wall_ms = m.fork_seconds * 1e3;
    fork.iters = m.fork_branches;
    fork.derived.emplace_back("branches_per_s", fork_rate);
    fork.derived.emplace_back("speedup_vs_replay", speedup);
    records.push_back(std::move(fork));
  }

  // Aggregate speedup in certified coverage per unit time: total naive
  // replay wall over total fork wall (both cover the complete branch
  // space of every config).
  const double aggregate =
      fork_total > 0 ? replay_total / fork_total : 0;
  char line[64];
  std::snprintf(line, sizeof line, "%.2fx (gate: >= 3x)", aggregate);
  bench::value("aggregate certification speedup", line);
  bench::value("all certifications correct", ok ? "yes" : "NO");
  if (!bench::write_bench_json("BENCH_certify.json", records)) return 1;
  return ok && aggregate >= 3.0 ? 0 : 1;
}
