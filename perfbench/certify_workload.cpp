// certify workload: exhaustive (K, L, S) certification at deep budgets,
// counterexample-guided repair and frontier sweeps, all on the paper's
// fixed schedules so every verdict has a pinned known answer. Loads
// Simulator::Branch forks, instant dedup, the certifier's internal caches,
// shrink (through repair) and frontier implication; scenario_gen and the
// service do no work here.
#include <algorithm>
#include <stdexcept>
#include <string>

#include "campaign/certify.hpp"
#include "campaign/frontier.hpp"
#include "campaign/repair.hpp"
#include "io/problem_format.hpp"
#include "sched/heuristics.hpp"
#include "workloads.hpp"

namespace ftbench {
namespace {

using namespace ftsched;

enum ProblemIndex : std::size_t { kFig22, kFig17, kFig17Base, kCertifyK2 };

ScheduledProblem scheduled(const std::string& name,
                           workload::OwnedProblem owned,
                           HeuristicKind kind) {
  ScheduledProblem out{name,
                       std::make_unique<workload::OwnedProblem>(
                           std::move(owned)),
                       std::nullopt};
  out.schedule = schedule(out.owned->problem, kind).value();
  return out;
}

workload::OwnedProblem read_problem_file(const std::string& path) {
  Expected<workload::OwnedProblem> parsed = io::read_problem(read_file(path));
  if (!parsed.has_value()) {
    throw std::runtime_error(path + ": " + parsed.error().message);
  }
  return std::move(parsed).value();
}

}  // namespace

CertifyWorkload::CertifyWorkload(const Config& config) : config_(config) {
  problems_.push_back(scheduled("fig22", workload::paper_example2(),
                                HeuristicKind::kSolution2));
  problems_.push_back(scheduled("fig17", workload::paper_example1(),
                                HeuristicKind::kSolution1));
  problems_.push_back(scheduled("fig17_base", workload::paper_example1(),
                                HeuristicKind::kBase));
  problems_.push_back(scheduled("certify_k2",
                                read_problem_file("data/certify_k2.ft"),
                                HeuristicKind::kSolution2));
  repair_problem_ = std::make_unique<workload::OwnedProblem>(
      read_problem_file("data/certify_k2.ft"));

  const auto spec = [&](int k, int l, int s) {
    campaign::CertifySpec out;
    out.max_failures = k;
    out.max_link_failures = l;
    out.max_silences = s;
    out.threads = config.threads;
    return out;
  };
  const bool smoke = config.size == Size::kSmoke;
  if (!smoke) {
    // The gated K=2+S=1 sweep, and its twin under the paper's latency
    // chains, which turn the certifier's internal subtree and leaf caches
    // off: one exercises those mechanisms and one bypasses them.
    sweeps_.push_back({"fig22_k2_s1", kFig22, spec(2, 0, 1), false, 271231,
                       176343, {}});
    campaign::CertifySpec chains = spec(2, 0, 1);
    chains.latency_constraints = campaign::paper_chain_constraints();
    sweeps_.push_back({"fig22_k2_s1_chains", kFig22, chains, false, 271231,
                       176343, {}});
    // K=3 on four processors, where the third crash really binds.
    sweeps_.push_back({"certify_k2_k3", kCertifyK2, spec(3, 0, 0), false,
                       462267, 213594, {}});
  }
  sweeps_.push_back({"fig22_k3_l1", kFig22, spec(3, 1, 0), false, 27620,
                     19863, {}});
  // Two silence windows against half the base makespan: the slack cut's
  // home ground.
  campaign::CertifySpec slack = spec(-1, 0, 2);
  slack.response_bound = problems_[kFig17Base].schedule->makespan() * 0.5;
  slack.max_counterexamples = 2;
  sweeps_.push_back(
      {"fig17_base_s2", kFig17Base, slack, false, 1954, 1351, {}});
  sweeps_.push_back({"example1_solution1_golden", kFig17, spec(-1, 0, 0), true,
                     40, 0,
                     read_file("data/golden/example1_solution1.cert.json")});
  sweeps_.push_back({"certify_k2_golden", kCertifyK2, spec(-1, 0, 0), true,
                     14598, 0, read_file("data/golden/certify_k2.cert.json")});
  if (config.plant_wrong_answer) ++sweeps_.front().counterexamples;

  frontiers_.push_back({kFig17, 6, 6, 1, {}});
  if (!smoke) frontiers_.push_back({kFig22, 8, 4, 2, {}});

  job_s_.resize(sweeps_.size() + 1 + frontiers_.size());
}

void CertifyWorkload::warm_up() {
  // One small sweep spins the worker pool.
  campaign::CertifySpec spec;
  spec.threads = config_.threads;
  (void)campaign::certify(*problems_[kFig17].schedule, spec);
}

const Schedule& CertifyWorkload::fig22() const {
  return *problems_[kFig22].schedule;
}
const Schedule& CertifyWorkload::fig17() const {
  return *problems_[kFig17].schedule;
}
const Schedule& CertifyWorkload::fig17_base() const {
  return *problems_[kFig17Base].schedule;
}

double CertifyWorkload::run_sweep(const Sweep& sweep, Checks& checks) {
  const ScheduledProblem& problem = problems_[sweep.problem];
  const double start = now_s();
  campaign::CertifyReport report;
  {
    const Span span("campaign.certify");
    report = campaign::certify(*problem.schedule, sweep.spec);
  }
  const double elapsed = seconds_since(start);
  branches_ += static_cast<double>(report.branches);
  forks_ += static_cast<double>(report.forks);
  events_ += static_cast<double>(report.events_simulated);
  instants_kept_ += static_cast<double>(report.instants_kept);
  instants_merged_ += static_cast<double>(report.instants_merged);

  bool ok = report.certified == sweep.certified &&
            report.branches == sweep.branches &&
            report.total_counterexamples == sweep.counterexamples;
  if (!sweep.golden.empty()) {
    ok = ok && report.to_json(*problem.owned->problem.architecture) ==
                   sweep.golden;
  }
  checks.expect(ok, "certify " + sweep.name + ": certified=" +
                        std::to_string(report.certified) +
                        " branches=" + std::to_string(report.branches) +
                        " counterexamples=" +
                        std::to_string(report.total_counterexamples) +
                        " (or certificate bytes) differ from the known answer");
  return elapsed;
}

double CertifyWorkload::run_repair(Checks& checks) {
  // The committed refuted workload judged under K=1 plus one link death.
  campaign::RepairSpec spec;
  spec.certify.max_failures = 1;
  spec.certify.max_link_failures = 1;
  spec.certify.threads = config_.threads;
  const double start = now_s();
  campaign::RepairReport report;
  {
    const Span span("campaign.repair");
    report = campaign::repair(repair_problem_->problem,
                              HeuristicKind::kSolution2, spec);
  }
  const double elapsed = seconds_since(start);
  repair_rounds_ += static_cast<double>(report.rounds.size());
  if (report.confirmation.has_value()) {
    repair_reused_ += static_cast<double>(report.confirmation->leaves_reused);
    repair_confirmed_ += static_cast<double>(report.confirmation->branches);
  }
  checks.expect(report.certified && report.rounds.size() == 3 &&
                    report.confirmation.has_value() &&
                    report.confirmation->certified &&
                    report.confirmation->leaves_reused > 0,
                "repair of data/certify_k2.ft did not certify in 3 rounds");
  return elapsed;
}

double CertifyWorkload::run_frontier(Frontier& frontier, Checks& checks) {
  const ScheduledProblem& problem = problems_[frontier.problem];
  campaign::FrontierSpec spec;
  spec.threads = config_.threads;
  const double start = now_s();
  campaign::FrontierReport report;
  {
    const Span span("campaign.frontier");
    report = campaign::frontier_sweep(*problem.schedule, spec);
  }
  const double elapsed = seconds_since(start);
  points_explored_ += static_cast<double>(report.points_explored);
  points_implied_ += static_cast<double>(report.points_implied);
  const std::string json = report.to_json(*problem.owned->problem.architecture);
  if (frontier.first_json.empty()) frontier.first_json = json;
  checks.expect(report.points_explored == frontier.explored &&
                    report.points_implied == frontier.implied &&
                    report.surface.size() == frontier.surface &&
                    json == frontier.first_json,
                "frontier of " + problem.name +
                    " differs from its known answer or between passes");
  return elapsed;
}

double CertifyWorkload::run_pass(Checks& checks) {
  const Span pass_span("bench.pass.certify");
  const double pass_start = now_s();

  // Jobs: sweeps, then repair, then frontiers; the seed permutes their
  // order in each pass (the inputs are fixed, see README.md).
  const std::size_t jobs = sweeps_.size() + 1 + frontiers_.size();
  std::vector<std::size_t> order(jobs);
  for (std::size_t i = 0; i < jobs; ++i) order[i] = i;
  std::uint64_t state = derive_seed(config_.seed, 7000 + passes_);
  for (std::size_t i = jobs; i > 1; --i) {
    state = derive_seed(state, i);
    std::swap(order[i - 1], order[state % i]);
  }
  for (const std::size_t job : order) {
    double elapsed = 0;
    if (job < sweeps_.size()) {
      elapsed = run_sweep(sweeps_[job], checks);
    } else if (job == sweeps_.size()) {
      elapsed = run_repair(checks);
    } else {
      elapsed = run_frontier(frontiers_[job - sweeps_.size() - 1], checks);
    }
    job_s_[job].push_back(elapsed);
  }
  ++passes_;
  return seconds_since(pass_start);
}

void CertifyWorkload::final_checks(Checks& checks) {
  // Certificates are pure functions of (schedule, spec): a single worker
  // must reproduce the pooled golden certificate byte for byte.
  for (const Sweep& sweep : sweeps_) {
    if (sweep.golden.empty()) continue;
    campaign::CertifySpec single = sweep.spec;
    single.threads = 1;
    const ScheduledProblem& problem = problems_[sweep.problem];
    checks.expect(campaign::certify(*problem.schedule, single)
                          .to_json(*problem.owned->problem.architecture) ==
                      sweep.golden,
                  "single-threaded " + sweep.name + " certificate differs");
  }
}

double CertifyWorkload::median_seconds(std::size_t first,
                                       std::size_t last) const {
  return sum_of_medians({job_s_.begin() + first, job_s_.begin() + last});
}

Metrics CertifyWorkload::end_to_end() const {
  double branches = 0;
  for (const Sweep& sweep : sweeps_) {
    branches += static_cast<double>(sweep.branches);
  }
  const double certify_s = median_seconds(0, sweeps_.size());
  return {
      {"latency_ms", certify_s * 1e3, "ms"},
      {"tail_ms", percentile(pooled(job_s_), 0.95) * 1e3, "ms"},
      {"throughput_per_s", ratio(branches, certify_s), "1/s"},
  };
}

Metrics CertifyWorkload::details() const {
  return {
      {"certify_s", median_seconds(0, sweeps_.size()), "s"},
      {"repair_s", median_seconds(sweeps_.size(), sweeps_.size() + 1), "s"},
      {"frontier_s", median_seconds(sweeps_.size() + 1, job_s_.size()), "s"},
  };
}

Metrics CertifyWorkload::layer_metrics() const {
  const double passes = static_cast<double>(passes_);
  return {
      {"campaign.certify.branches", ratio(branches_, passes), "count"},
      {"campaign.certify.forks", ratio(forks_, passes), "count"},
      {"campaign.certify.events_simulated", ratio(events_, passes), "count"},
      {"campaign.certify.instants_merged_ratio",
       ratio(instants_merged_, instants_kept_ + instants_merged_), "ratio"},
      {"campaign.repair.rounds", ratio(repair_rounds_, passes), "count"},
      {"campaign.repair.leaf_reuse_ratio",
       ratio(repair_reused_, repair_confirmed_), "ratio"},
      {"campaign.frontier.points_explored", ratio(points_explored_, passes),
       "count"},
      {"campaign.frontier.points_implied", ratio(points_implied_, passes),
       "count"},
  };
}

}  // namespace ftbench
