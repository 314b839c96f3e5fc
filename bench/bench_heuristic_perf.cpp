// P1: throughput of the scheduling heuristics themselves (google-benchmark)
// versus graph size, processor count, and K — the compile-time cost a
// SynDEx-style tool pays per design iteration. Besides the console table,
// every run writes BENCH_sched.json (override with $FTSCHED_BENCH_OUT) so
// CI can archive results and diff them across commits. Run it with
// --benchmark_repetitions=5 (as CI does) for gated numbers: the JSON keeps
// the median repetition per configuration.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "sched/heuristics.hpp"
#include "workload/random_arch.hpp"

namespace ftsched {
namespace {

workload::OwnedProblem make_problem(std::size_t operations,
                                    std::size_t processors, int k,
                                    workload::ArchKind arch) {
  workload::RandomProblemParams params;
  params.dag.operations = operations;
  params.dag.width = 6;
  params.arch_kind = arch;
  params.processors = processors;
  params.failures_to_tolerate = k;
  params.ccr = 0.5;
  params.seed = 97;
  return workload::random_problem(params);
}

void BM_Solution1_Bus(benchmark::State& state) {
  const auto ex = make_problem(static_cast<std::size_t>(state.range(0)),
                               static_cast<std::size_t>(state.range(1)),
                               static_cast<int>(state.range(2)),
                               workload::ArchKind::kBus);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_solution1(ex.problem));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Solution1_Bus)
    ->Args({20, 4, 1})
    ->Args({50, 4, 1})
    ->Args({100, 4, 1})
    ->Args({200, 4, 1})
    ->Args({100, 8, 1})
    ->Args({100, 8, 3})
    ->Unit(benchmark::kMicrosecond);

void BM_Solution2_P2P(benchmark::State& state) {
  const auto ex = make_problem(static_cast<std::size_t>(state.range(0)),
                               static_cast<std::size_t>(state.range(1)),
                               static_cast<int>(state.range(2)),
                               workload::ArchKind::kFullyConnected);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_solution2(ex.problem));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Solution2_P2P)
    ->Args({20, 4, 1})
    ->Args({50, 4, 1})
    ->Args({100, 4, 1})
    ->Args({200, 4, 1})
    ->Args({100, 8, 1})
    ->Args({100, 8, 3})
    ->Unit(benchmark::kMicrosecond);

void BM_Baseline(benchmark::State& state) {
  const auto ex = make_problem(static_cast<std::size_t>(state.range(0)), 6,
                               0, workload::ArchKind::kBus);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_base(ex.problem));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Baseline)->Arg(50)->Arg(200)->Arg(500)
    ->Unit(benchmark::kMicrosecond);

/// Console output as usual, plus one BenchRecord per benchmark whose
/// wall_ms is the median over its --benchmark_repetitions of the wall time
/// per iteration (CI runs five: a single sample at the fast or slow edge of
/// the runner's spread must not set the gated figure). google-benchmark
/// encodes Args as "BM_Name/20/4/1"; the part after the first '/' becomes
/// `params` verbatim. Each record carries the repetition count and the
/// machine's hardware thread count.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type == Run::RT_Aggregate || run.iterations <= 0) continue;
      const std::string full = run.benchmark_name();
      auto it = std::find_if(samples_.begin(), samples_.end(),
                             [&](const Samples& s) { return s.full == full; });
      if (it == samples_.end()) {
        samples_.push_back(Samples{full, {}, 0});
        it = std::prev(samples_.end());
      }
      it->wall_ms.push_back(run.real_accumulated_time * 1e3 /
                            static_cast<double>(run.iterations));
      it->iters += static_cast<std::uint64_t>(run.iterations);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  /// One record per benchmark, in run order.
  [[nodiscard]] std::vector<bench::BenchRecord> records() const {
    const double hardware_threads =
        static_cast<double>(std::thread::hardware_concurrency());
    std::vector<bench::BenchRecord> out;
    for (const Samples& s : samples_) {
      bench::BenchRecord record;
      const std::size_t slash = s.full.find('/');
      record.name = s.full.substr(0, slash);
      if (slash != std::string::npos) record.params = s.full.substr(slash + 1);
      record.iters = s.iters;
      record.wall_ms = median(s.wall_ms);
      record.derived = {
          {"repetitions", static_cast<double>(s.wall_ms.size())},
          {"hardware_threads", hardware_threads}};
      out.push_back(std::move(record));
    }
    return out;
  }

 private:
  struct Samples {
    std::string full;
    std::vector<double> wall_ms;  // one per repetition
    std::uint64_t iters = 0;      // summed over repetitions
  };

  static double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2;
  }

  std::vector<Samples> samples_;
};

}  // namespace
}  // namespace ftsched

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ftsched::JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return ftsched::bench::write_bench_json("BENCH_sched.json",
                                          reporter.records())
             ? 0
             : 1;
}
