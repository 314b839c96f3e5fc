// Counterexample-guided repair throughput: wall time and leaf-cache
// leverage of the full refute → repair → re-certify loop on the committed
// refuted workload (the K=2 bus problem judged under K=1 + one link
// death). Reports rounds, moves, branches certified, and the confirmation
// sweep's leaves-reused fraction; writes BENCH_repair.json for trend
// plots. Not baseline-gated — exit 1 only when a result is wrong (the
// loop fails to converge or the cache shows zero reuse).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "campaign/repair.hpp"
#include "sched/heuristics.hpp"
#include "workload/random_arch.hpp"

using namespace ftsched;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

workload::OwnedProblem k2_bus_problem() {
  workload::RandomProblemParams params;
  params.dag.operations = 10;
  params.processors = 4;
  params.failures_to_tolerate = 2;
  params.seed = 11;
  return workload::random_problem(params);
}

}  // namespace

int main() {
  bench::header("bench_repair",
                "counterexample-guided repair loop (refute -> repair -> "
                "re-certify)");

  const workload::OwnedProblem ex = k2_bus_problem();
  bool ok = true;
  std::vector<bench::BenchRecord> records;

  for (const unsigned threads : {1u, 0u}) {
    campaign::RepairSpec spec;
    spec.certify.max_failures = 1;
    spec.certify.max_link_failures = 1;
    spec.certify.threads = threads;

    const int reps = 3;
    double best = -1;
    campaign::RepairReport report;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      report = campaign::repair(ex.problem, HeuristicKind::kSolution2, spec);
      const double elapsed = seconds_since(start);
      if (best < 0 || elapsed < best) best = elapsed;
    }
    ok = ok && report.certified && report.confirmation.has_value() &&
         report.confirmation->leaves_reused > 0;

    std::size_t branches = 0;
    for (const campaign::RepairRound& round : report.rounds) {
      branches += round.branches;
    }
    const double reuse =
        report.confirmation.has_value() && report.confirmation->branches > 0
            ? static_cast<double>(report.confirmation->leaves_reused) /
                  static_cast<double>(report.confirmation->branches)
            : 0.0;

    const std::string label =
        threads == 1 ? "repair_k1_l1_t1" : "repair_k1_l1_auto";
    bench::section(label);
    bench::value("certified", report.certified ? "yes" : "no");
    bench::value("rounds", std::to_string(report.rounds.size()));
    bench::value("branches certified", std::to_string(branches));
    bench::value("cache entries", std::to_string(report.cache_entries));
    bench::value("confirmation reuse",
                 std::to_string(reuse * 100.0).substr(0, 5) + " %");
    bench::value("wall seconds (best of 3)", std::to_string(best));

    bench::BenchRecord record;
    record.name = label;
    record.params = "workload=k2_bus;claim_k=1;claim_l=1;threads=" +
                    std::to_string(threads) +
                    ";rounds=" + std::to_string(report.rounds.size()) +
                    ";branches=" + std::to_string(branches);
    record.wall_ms = best * 1000.0;
    record.iters = 1;
    records.push_back(record);
  }

  if (!bench::write_bench_json("BENCH_repair.json", records)) ok = false;
  if (!ok) {
    std::fprintf(stderr, "bench_repair: FAILED correctness check\n");
    return 1;
  }
  std::printf("\nbench_repair: OK\n");
  return 0;
}
