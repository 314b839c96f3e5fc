// Benchmark plumbing: the error ledger, percentiles, seeds, spans and the
// per-layer span table, file reading and peak RSS.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/span.hpp"

namespace ftbench {

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  constexpr std::size_t kLogged = 10;
  if (failed_ < kLogged) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  ++failed_;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double sum_of_medians(const std::vector<std::vector<double>>& samples) {
  double sum = 0;
  for (const std::vector<double>& item : samples) sum += median(item);
  return sum;
}

std::vector<double> pooled(const std::vector<std::vector<double>>& samples) {
  std::vector<double> out;
  for (const std::vector<double>& item : samples) {
    out.insert(out.end(), item.begin(), item.end());
  }
  return out;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
std::atomic<bool> g_tracing{false};
std::atomic<std::size_t> g_spans{0};
}  // namespace

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }
std::size_t spans_recorded() { return g_spans.load(std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (tracing()) {
    name_ = name;
    start_ns_ = ftsched::obs::now_ns();
  }
}

Span::~Span() {
  if (name_ != nullptr) {
    ftsched::obs::Profiler::global().record(name_, start_ns_,
                                            ftsched::obs::now_ns());
    g_spans.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<LayerTime> collect_spans(const std::string& trace_path) {
  std::vector<ftsched::obs::SpanRecord> spans =
      ftsched::obs::Profiler::global().drain();
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    out << ftsched::obs::chrome_trace_from_spans(spans);
    if (!out) throw std::runtime_error("cannot write " + trace_path);
  }

  // Spans of one thread nest (they are scoped), so a stack ordered by
  // start time finds each span's parent; a parent's self time excludes
  // its direct children.
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!stack.empty() &&
           (spans[stack.back()].thread != spans[i].thread ||
            spans[stack.back()].end_ns <= spans[i].start_ns)) {
      stack.pop_back();
    }
    if (!stack.empty()) child_ns[stack.back()] += spans[i].duration_ns();
    stack.push_back(i);
  }
  std::map<std::string, LayerTime> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& layer = by_name[spans[i].name];
    layer.name = spans[i].name;
    ++layer.calls;
    layer.total_ms += static_cast<double>(spans[i].duration_ns()) / 1e6;
    layer.self_ms +=
        static_cast<double>(spans[i].duration_ns() - child_ns[i]) / 1e6;
  }
  std::vector<LayerTime> table;
  for (auto& [name, layer] : by_name) table.push_back(layer);
  std::sort(table.begin(), table.end(),
            [](const LayerTime& a, const LayerTime& b) {
              return a.self_ms > b.self_ms;
            });
  return table;
}

double mean_span_ms(const std::vector<LayerTime>& table,
                    const std::string& name) {
  for (const LayerTime& layer : table) {
    if (layer.name == name) {
      return layer.calls > 0 ? layer.total_ms / layer.calls : 0.0;
    }
  }
  return 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

}  // namespace ftbench
