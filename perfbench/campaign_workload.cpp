// campaign workload: schedule synthesis plus randomized fault-injection
// campaigns. Loads sched, sim (run_summary and the event queue), and the
// campaign runner's scenario_gen, canonical, replay_cache, oracle and
// work_pool; certify and the service do no work here.
#include <string>

#include "campaign/runner.hpp"
#include "sched/heuristics.hpp"
#include "sched/validate.hpp"
#include "workload/random_arch.hpp"
#include "workloads.hpp"

namespace ftbench {
namespace {

using namespace ftsched;

struct SynthShape {
  std::vector<std::size_t> ops;
  std::vector<std::size_t> processors;
  std::vector<int> k;
  /// Distinct problems per grid cell.
  std::size_t replicas = 1;
};

/// Synthesis grid: `replicas` problems of every (ops, processors, K)
/// combination, 192 in all, so p95 has about ten problems beyond it. The
/// seed changes each problem's DAG and timing tables, not the grid.
SynthShape synth_shape(Size size) {
  if (size == Size::kSmoke) return {{50, 100}, {4}, {1, 2}, 1};
  return {{50, 100, 150, 200, 250, 300, 350, 400}, {4, 6, 8}, {1, 2}, 4};
}

/// Generated point-to-point campaign problems (6 fully connected
/// processors, K=1) and scenarios per campaign of each.
std::vector<std::size_t> p2p_ops(Size size) {
  if (size == Size::kSmoke) return {20, 60};
  return {20, 28, 36, 44, 52, 60};
}
constexpr std::size_t kP2pScenarios = 3000;
constexpr std::size_t kExample1Scenarios = 100000;
constexpr std::size_t kSmokeScenarios = 400;

/// Checked thread-count invariance: scenarios per input in final_checks.
constexpr std::size_t kInvarianceScenarios = 1500;

const char* const kHeuristicSpans[] = {"sched.base", "sched.solution1",
                                       "sched.solution2"};

Expected<Schedule> synthesize(const Problem& problem, int heuristic) {
  const Span span(kHeuristicSpans[heuristic]);
  switch (heuristic) {
    case 0:
      return schedule_base(problem);
    case 1:
      return schedule_solution1(problem);
    default:
      return schedule_solution2(problem);
  }
}

}  // namespace

CampaignWorkload::CampaignWorkload(const Config& config) : config_(config) {
  const SynthShape shape = synth_shape(config.size);
  std::uint64_t stream = 0;
  for (const std::size_t ops : shape.ops) {
    for (const std::size_t procs : shape.processors) {
      for (const int k : shape.k) {
        for (std::size_t r = 0; r < shape.replicas; ++r) {
          workload::RandomProblemParams params;
          params.dag.operations = ops;
          params.dag.seed = derive_seed(config.seed, ++stream);
          params.processors = procs;
          params.failures_to_tolerate = k;
          params.seed = derive_seed(config.seed, ++stream);
          synth_.push_back(std::make_unique<workload::OwnedProblem>(
              workload::random_problem(params)));
        }
      }
    }
  }
  synth_hashes_.resize(synth_.size());
  synth_ms_.resize(synth_.size());
  last_schedules_.resize(synth_.size());

  const bool smoke = config.size == Size::kSmoke;
  {
    ScheduledProblem ex1{"example1_solution1",
                         std::make_unique<workload::OwnedProblem>(
                             workload::paper_example1()),
                         std::nullopt};
    ex1.schedule = schedule_solution1(ex1.owned->problem).value();
    inputs_.push_back(std::move(ex1));
    scenarios_.push_back(smoke ? kSmokeScenarios * 10 : kExample1Scenarios);
  }
  for (const std::size_t ops : p2p_ops(config.size)) {
    workload::RandomProblemParams params;
    params.dag.operations = ops;
    params.dag.seed = derive_seed(config.seed, 1000 + ops);
    params.processors = 6;
    params.arch_kind = workload::ArchKind::kFullyConnected;
    params.failures_to_tolerate = 1;
    params.seed = derive_seed(config.seed, 2000 + ops);
    ScheduledProblem p2p{"p2p_" + std::to_string(ops) + "ops_solution2",
                         std::make_unique<workload::OwnedProblem>(
                             workload::random_problem(params)),
                         std::nullopt};
    p2p.schedule = schedule_solution2(p2p.owned->problem).value();
    inputs_.push_back(std::move(p2p));
    scenarios_.push_back(smoke ? kSmokeScenarios : kP2pScenarios);
  }
  first_outcome_.resize(inputs_.size());
  campaign_s_.resize(inputs_.size());
}

void CampaignWorkload::warm_up() {
  // Synthesize every problem once and spin the worker pool: a process's
  // first syntheses run about 8% slower than later ones while the
  // allocator grows its heap, and how many passes dilute them would
  // otherwise follow the machine's speed.
  for (const auto& problem : synth_) {
    for (int heuristic = 0; heuristic < 3; ++heuristic) {
      (void)synthesize(problem->problem, heuristic);
    }
  }
  (void)campaign::run_campaign(*inputs_[0].schedule,
                               options_for(0, 2000, config_.threads));
}

campaign::CampaignOptions CampaignWorkload::options_for(
    std::size_t input, std::size_t scenarios, unsigned threads) const {
  campaign::CampaignOptions options;
  options.scenarios = scenarios;
  options.threads = threads;
  options.seed = derive_seed(config_.seed, 5000 + input);
  // Multi-iteration missions with over-budget, fail-silent and suspect
  // faults: every oracle and mission path is exercised.
  options.spec.min_iterations = 2;
  options.spec.max_iterations = 3;
  options.spec.over_budget_fraction = 0.15;
  options.spec.silence_probability = 0.10;
  options.spec.suspect_probability = 0.10;
  return options;
}

CampaignWorkload::Outcome CampaignWorkload::outcome_of(
    const campaign::CampaignReport& report) {
  return Outcome{report.total_violations, report.within_contract,
                 report.expected_losses, report.unique_scenarios,
                 report.duplicate_scenarios};
}

double CampaignWorkload::run_pass(Checks& checks) {
  const Span pass_span("bench.pass.campaign");
  const double pass_start = now_s();

  for (std::size_t i = 0; i < synth_.size(); ++i) {
    const Problem& problem = synth_[i]->problem;
    std::vector<Schedule> schedules;
    bool ok = true;
    const double start = now_s();
    for (int heuristic = 0; heuristic < 3; ++heuristic) {
      Expected<Schedule> result = synthesize(problem, heuristic);
      if (!result.has_value()) {
        ok = false;
        break;
      }
      schedules.push_back(std::move(result).value());
    }
    synth_ms_[i].push_back(seconds_since(start) * 1e3);
    if (ok) {
      std::vector<std::uint64_t> hashes;
      for (const Schedule& schedule : schedules) {
        hashes.push_back(schedule_hash(schedule));
      }
      if (synth_hashes_[i].empty()) synth_hashes_[i] = hashes;
      ok = hashes == synth_hashes_[i];
      last_schedules_[i] = std::move(schedules);
    }
    checks.expect(ok, "synthesis of problem " + std::to_string(i) +
                          " failed or is not deterministic");
  }

  // Schedules meeting their K contract show no oracle violation; the
  // over-budget draws land in expected_losses instead.
  const std::size_t expected_violations = config_.plant_wrong_answer ? 1 : 0;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const campaign::CampaignOptions options =
        options_for(i, scenarios_[i], config_.threads);
    const double start = now_s();
    campaign::CampaignReport report;
    {
      const Span span("campaign.run_campaign");
      report = campaign::run_campaign(*inputs_[i].schedule, options);
    }
    campaign_s_[i].push_back(seconds_since(start));
    scenarios_run_ += static_cast<double>(report.scenarios_run);
    duplicates_ += static_cast<double>(report.duplicate_scenarios);
    cached_replays_ += static_cast<double>(report.cached_replays);

    const Outcome outcome = outcome_of(report);
    if (!first_outcome_[i].has_value()) first_outcome_[i] = outcome;
    checks.expect(report.scenarios_run == options.scenarios &&
                      outcome == *first_outcome_[i] &&
                      report.total_violations == expected_violations,
                  "campaign on " + inputs_[i].name + ": " +
                      std::to_string(report.total_violations) +
                      " violations or counts differ between repetitions");
  }
  return seconds_since(pass_start);
}

void CampaignWorkload::final_checks(Checks& checks) {
  for (std::size_t i = 0; i < last_schedules_.size(); ++i) {
    for (const Schedule& schedule : last_schedules_[i]) {
      checks.expect(validate(schedule).empty(),
                    "synthesized schedule " + std::to_string(i) +
                        " fails validation");
    }
  }
  // Reports are pure functions of (schedule, options): one worker and the
  // full pool must agree on every count.
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const Schedule& schedule = *inputs_[i].schedule;
    const Outcome pooled = outcome_of(campaign::run_campaign(
        schedule, options_for(i, kInvarianceScenarios, config_.threads)));
    const Outcome single = outcome_of(campaign::run_campaign(
        schedule, options_for(i, kInvarianceScenarios, 1)));
    checks.expect(pooled == single,
                  "campaign on " + inputs_[i].name +
                      " differs between 1 and " +
                      std::to_string(config_.threads) + " threads");
  }
}

double CampaignWorkload::scenarios_per_s() const {
  double scenarios = 0;
  for (const std::size_t n : scenarios_) scenarios += static_cast<double>(n);
  return ratio(scenarios, sum_of_medians(campaign_s_));
}

Metrics CampaignWorkload::end_to_end() const {
  const std::vector<double> synth = pooled(synth_ms_);
  return {
      {"latency_ms", median(synth), "ms"},
      {"tail_ms", percentile(synth, 0.95), "ms"},
      {"throughput_per_s", scenarios_per_s(), "1/s"},
  };
}

Metrics CampaignWorkload::details() const {
  Metrics out = end_to_end();
  out[0].name = "synth_p50_ms";
  out[1].name = "synth_p95_ms";
  out[2].name = "campaign_scen_per_s";
  return out;
}

Metrics CampaignWorkload::layer_metrics() const {
  return {
      {"campaign.duplicate_ratio", ratio(duplicates_, scenarios_run_),
       "ratio"},
      {"campaign.cached_replay_ratio", ratio(cached_replays_, scenarios_run_),
       "ratio"},
  };
}

}  // namespace ftbench
