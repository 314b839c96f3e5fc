// Shared pieces of the ftsched benchmark (see README.md): run
// configuration, the correctness ledger that feeds error_rate, metric
// records, timing and percentile helpers, and the benchmark's own spans.
//
// Every workload is a class with the same five members:
//   Workload(const Config&)      set-up: generate inputs from the seed
//   void warm_up()               start worker pools once; not part of set-up
//   double run_pass(Checks&)     one pass over the fixed job list; wall seconds
//   void final_checks(Checks&)   untimed known-answer and invariance checks
//   Metrics end_to_end() const   the end-to-end slots from the passes so far
// plus layer_metrics() for the traced run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ftbench {

enum class Size { kFull, kSmoke };

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  /// Self-test hook: every workload perturbs one known answer, so the
  /// checks must fail and error_rate must become non-zero.
  bool plant_wrong_answer = false;
  /// Worker threads a workload may use: min(4, CPUs this process may run on).
  unsigned threads = 4;
  std::string out_dir;
  std::string commit = "unknown";
};

/// Operations attempted and failed; every checked output is one operation.
class Checks {
 public:
  /// Counts one attempted operation; a false `ok` counts it failed and
  /// logs `what` (the first few failures only) to stderr.
  void expect(bool ok, const std::string& what);
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(double start) {
  return now_s() - start;
}

/// Linear-interpolated percentile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}
/// The sum of the medians of `samples` (one sample list per item).
[[nodiscard]] double sum_of_medians(
    const std::vector<std::vector<double>>& samples);
/// Every sample of every item in one list.
[[nodiscard]] std::vector<double> pooled(
    const std::vector<std::vector<double>>& samples);
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// splitmix64: derives independent input seeds from the workload seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// The benchmark's own spans around calls into the library, recorded with
/// obs::Profiler::record only while tracing is on. `name` must be a
/// string literal (the profiler keeps the pointer).
void set_tracing(bool on);
[[nodiscard]] bool tracing();
/// Spans recorded since the process started.
[[nodiscard]] std::size_t spans_recorded();
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
};

/// Aggregated spans of one name: calls, busy time, and self time (busy
/// time minus the part covered by child spans on the same thread).
struct LayerTime {
  std::string name;
  std::size_t calls = 0;
  double total_ms = 0;
  double self_ms = 0;
};
/// Drains the profiler, writes the Chrome trace to `trace_path`, and
/// returns the per-name table sorted by self time.
[[nodiscard]] std::vector<LayerTime> collect_spans(
    const std::string& trace_path);
/// Mean milliseconds per call of span `name` in `table` (0 if absent).
[[nodiscard]] double mean_span_ms(const std::vector<LayerTime>& table,
                                  const std::string& name);

/// The whole file at `path`, relative to the checkout root; throws
/// std::runtime_error when it cannot be read.
[[nodiscard]] std::string read_file(const std::string& path);

/// Peak resident set of this process in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace ftbench
