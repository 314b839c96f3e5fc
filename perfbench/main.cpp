// ftbench: one command for every end-to-end metric of ftsched, with a
// separate traced run for the per-layer metrics. Normally started by
// run.py, which builds this binary first:
//
//   ftbench --workload campaign|certify|certifyd --seed N --seconds S
//           --trace 0|1 [--size full|smoke] [--plant-wrong-answer]
//           [--out-dir DIR] [--commit SHA]
//
// Run from the repository root (it reads data/). The last line of standard
// output is the result object: {"correct", "attempted", "failed",
// "metrics"}; the lines before it say what ran, on what, and why.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "bench.hpp"
#include "layers.hpp"
#include "obs/json_util.hpp"
#include "obs/span.hpp"
#include "workloads.hpp"

namespace ftbench {
namespace {

/// Set-ups per run: at least kSetups of them and for at least
/// kSetupSeconds; setup_s is their median.
constexpr std::size_t kSetups = 9;
constexpr double kSetupSeconds = 0.25;

unsigned allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "ftbench: %s\n"
               "usage: ftbench --workload campaign|certify|certifyd --seed N "
               "--seconds S --trace 0|1 [--size full|smoke] "
               "[--plant-wrong-answer] [--out-dir DIR] [--commit SHA]\n",
               problem.c_str());
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        config.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        config.trace = v == "1";
      } else if (arg == "--size") {
        const std::string v = value();
        if (v != "full" && v != "smoke") usage("--size takes full or smoke");
        config.size = v == "smoke" ? Size::kSmoke : Size::kFull;
      } else if (arg == "--plant-wrong-answer") {
        config.plant_wrong_answer = true;
      } else if (arg == "--out-dir") {
        config.out_dir = value();
      } else if (arg == "--commit") {
        config.commit = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload || (config.workload != "campaign" &&
                         config.workload != "certify" &&
                         config.workload != "certifyd")) {
    usage("--workload must be campaign, certify or certifyd");
  }
  if (!(config.seconds > 0)) usage("--seconds must be positive");
  if (config.out_dir.empty()) config.out_dir = ".";
  config.threads = std::min(4u, allowed_cpus());
  return config;
}

/// The machine and build, printed with every result.
std::string machine_line(const Config& config) {
  char line[512];
  std::snprintf(line, sizeof line,
                "machine: nproc=%u hardware_concurrency=%u threads=%u "
                "compiler=\"%s\" build_type=%s FTSCHED_OBS=%d commit=%s",
                allowed_cpus(), std::thread::hardware_concurrency(),
                config.threads, FTBENCH_COMPILER, FTBENCH_BUILD_TYPE,
                FTSCHED_OBS_ENABLED, config.commit.c_str());
  return line;
}

/// Every value with all its digits, the way the result contract wants it.
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(bool correct, const Checks& checks,
                        const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted());
  out += ", \"failed\": " + std::to_string(checks.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

void print_metrics(const char* kind, const Metrics& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-8s %-40s %16.6f %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

template <typename Workload>
Metrics run_untraced(const Config& config, Checks& checks) {
  std::vector<double> setups;
  std::unique_ptr<Workload> workload;
  const double setups_start = now_s();
  while (setups.size() < kSetups ||
         seconds_since(setups_start) < kSetupSeconds) {
    workload.reset();
    const double start = now_s();
    workload = std::make_unique<Workload>(config);
    setups.push_back(seconds_since(start));
  }
  std::printf("set-ups: %zu\n", setups.size());
  workload->warm_up();

  // At least two passes, however short --seconds is; no pass is started
  // that would likely end after --seconds.
  std::vector<double> passes;
  const double start = now_s();
  while (passes.size() < 2 ||
         seconds_since(start) + passes.back() <= config.seconds) {
    passes.push_back(workload->run_pass(checks));
  }
  std::printf("passes: %zu in %.3f s\n", passes.size(), seconds_since(start));
  workload->final_checks(checks);

  // Peak RSS is printed, not reported: it moves by whole multiples of
  // about 8 MB with which malloc arenas keep freed memory (see README.md).
  Metrics details = workload->details();
  details.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  print_metrics("detail", details);
  Metrics metrics = {
      {"setup_s", median(setups), "s"},
      {"pass_s", median(passes), "s"},
  };
  const Metrics more = workload->end_to_end();
  metrics.insert(metrics.end(), more.begin(), more.end());
  return metrics;
}

int run(int argc, char** argv) {
  const Config config = parse_args(argc, argv);
  std::printf("ftbench workload=%s seed=%llu seconds=%g trace=%d size=%s%s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0,
              config.size == Size::kSmoke ? "smoke" : "full",
              config.plant_wrong_answer ? " plant-wrong-answer" : "");
  const std::string machine = machine_line(config);
  std::printf("%s\n", machine.c_str());
  if (std::string(FTBENCH_BUILD_TYPE) != "Release") {
    const char* warning =
        "WARNING: NOT A RELEASE BUILD (build_type=" FTBENCH_BUILD_TYPE
        "): timings are not comparable with Release results\n";
    std::fputs(warning, stdout);
    std::fputs(warning, stderr);
  }
  // The library's own spans stay off; only the benchmark's spans record.
  ftsched::obs::Profiler::global().enable(false);

  Checks checks;
  Metrics metrics;
  if (config.trace) {
    metrics = run_traced(config, checks);
  } else if (config.workload == "campaign") {
    metrics = run_untraced<CampaignWorkload>(config, checks);
  } else if (config.workload == "certify") {
    metrics = run_untraced<CertifyWorkload>(config, checks);
  } else {
    metrics = run_untraced<CertifydWorkload>(config, checks);
  }
  print_metrics(config.trace ? "layer" : "metric", metrics);
  const double error_rate = ratio(static_cast<double>(checks.failed()),
                                  static_cast<double>(checks.attempted()));
  std::printf("error_rate: %zu failed / %zu attempted = %.6f\n",
              checks.failed(), checks.attempted(), error_rate);

  const bool correct = checks.failed() == 0 && checks.attempted() > 0;
  const std::string result = result_json(correct, checks, metrics);
  const std::string path = config.out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) +
                           (config.trace ? "-trace" : "") + ".result.json";
  std::ofstream file(path);
  file << "{\"machine\": " << ftsched::obs::json_string(machine)
       << ", \"error_rate\": "
       << number(error_rate) << ", \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace ftbench

int main(int argc, char** argv) {
  try {
    return ftbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ftbench: %s\n", error.what());
    return 1;
  }
}
