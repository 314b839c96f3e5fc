// The traced run. It times untraced passes of the chosen workload and
// counts the spans of a traced one (with the cost of a span, that gives
// the tracing overhead), runs one traced pass of the other two workloads,
// then probes single layers from the outside at their public calls. Every
// per-layer metric comes from the workload README.md names for it,
// whichever workload was asked for.
#include <cstdio>
#include <string>

#include "campaign/canonical.hpp"
#include "campaign/certify.hpp"
#include "campaign/oracle.hpp"
#include "campaign/scenario_gen.hpp"
#include "io/problem_format.hpp"
#include "layers.hpp"
#include "obs/span.hpp"
#include "sched/heuristics.hpp"
#include "service/protocol.hpp"
#include "sim/mission.hpp"
#include "sim/simulator.hpp"

namespace ftbench {
namespace {

using namespace ftsched;

void append(Metrics& out, const Metrics& more) {
  out.insert(out.end(), more.begin(), more.end());
}

/// The first iteration of a mission plan as a single-iteration scenario.
FailureScenario first_iteration(const MissionPlan& plan) {
  FailureScenario scenario;
  for (const MissionFailure& f : plan.failures) {
    if (f.iteration == 0) scenario.events.push_back(f.event);
  }
  for (const MissionSilence& s : plan.silences) {
    if (s.iteration == 0) scenario.silent_windows.push_back(s.window);
  }
  for (const MissionLinkFailure& l : plan.link_failures) {
    if (l.iteration == 0) scenario.link_events.push_back(l.event);
  }
  scenario.failed_at_start = plan.dead_at_start;
  scenario.failed_links_at_start = plan.dead_links_at_start;
  scenario.suspected_at_start = plan.suspected_at_start;
  return scenario;
}

/// Simulator, scenario generator, canonicalizer and oracle, each timed
/// over the campaign workload's own scenario stream.
Metrics campaign_layer_probes(const CampaignWorkload& campaign,
                              const Config& config, Checks& checks) {
  const std::size_t example1_draws = config.size == Size::kSmoke ? 500 : 20000;
  const std::size_t p2p_draws = config.size == Size::kSmoke ? 100 : 1000;
  double gen_ns = 0;
  double canonical_ns = 0;
  double judge_ns = 0;
  double draws = 0;
  double events = 0;
  double scenarios = 0;
  double queue_ns[3] = {0, 0, 0};
  const EventSchedulerKind kinds[3] = {EventSchedulerKind::kAuto,
                                       EventSchedulerKind::kBinaryHeap,
                                       EventSchedulerKind::kCalendar};
  const char* const queue_spans[3] = {"sim.run_summary.auto",
                                      "sim.run_summary.heap",
                                      "sim.run_summary.calendar"};

  const auto& inputs = campaign.campaign_inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Schedule& schedule = *inputs[i].schedule;
    const std::size_t n = i == 0 ? example1_draws : p2p_draws;
    const campaign::CampaignOptions options =
        campaign.options_for(i, n, config.threads);

    const campaign::ScenarioGenerator generator(schedule, options.spec,
                                                options.seed);
    campaign::CampaignScenario scenario;
    campaign::ScenarioScratch scenario_scratch;
    {
      const Span span("campaign.scenario_gen");
      const double start = now_s();
      for (std::size_t k = 0; k < n; ++k) {
        generator.scenario_into(k, scenario, scenario_scratch);
      }
      gen_ns += seconds_since(start) * 1e9;
    }
    // The same draws again, untimed, kept for the layers below.
    std::vector<MissionPlan> plans(n);
    for (std::size_t k = 0; k < n; ++k) {
      generator.scenario_into(k, scenario, scenario_scratch);
      plans[k] = scenario.plan;
    }
    {
      const Span span("campaign.canonical");
      campaign::CanonicalScratch scratch;
      std::string fingerprint;
      const double start = now_s();
      for (const MissionPlan& plan : plans) {
        campaign::canonical_fingerprint_into(plan, scratch, fingerprint);
      }
      canonical_ns += seconds_since(start) * 1e9;
    }
    {
      const Simulator simulator(schedule);
      MissionScratch scratch;
      std::vector<MissionResult> results;
      for (const MissionPlan& plan : plans) {
        results.push_back(run_mission(simulator, plan, scratch));
      }
      const campaign::Oracle oracle(schedule, options.oracle);
      const Span span("campaign.oracle");
      const double start = now_s();
      for (std::size_t k = 0; k < plans.size(); ++k) {
        (void)oracle.judge(plans[k], results[k]);
      }
      judge_ns += seconds_since(start) * 1e9;
    }
    draws += static_cast<double>(n);

    // One iteration of each drawn plan under each event queue; the
    // summaries must agree whatever the queue.
    std::vector<FailureScenario> singles;
    for (const MissionPlan& plan : plans) singles.push_back(first_iteration(plan));
    std::vector<IterationSummary> reference;
    for (int q = 0; q < 3; ++q) {
      SimOptions sim_options;
      sim_options.scheduler = kinds[q];
      const Simulator simulator(schedule, sim_options);
      Simulator::Scratch scratch;
      IterationSummary summary;
      bool same = true;
      double queue_events = 0;
      const Span span(queue_spans[q]);
      const double start = now_s();
      for (std::size_t k = 0; k < singles.size(); ++k) {
        simulator.run_summary(singles[k], scratch, summary);
        queue_events += static_cast<double>(summary.events_executed);
        if (q == 0) {
          reference.push_back(summary);
        } else {
          same = same &&
                 summary.events_executed == reference[k].events_executed &&
                 summary.response_time == reference[k].response_time &&
                 summary.all_outputs_produced ==
                     reference[k].all_outputs_produced;
        }
      }
      queue_ns[q] += seconds_since(start) * 1e9;
      if (q == 0) {
        events += queue_events;
        scenarios += static_cast<double>(singles.size());
      }
      checks.expect(same, "run_summary on " + inputs[i].name +
                              " differs between event queues");
    }
  }

  // Work-pool scaling: the same campaigns on one worker and on the pool.
  double rate[2] = {0, 0};
  const unsigned threads[2] = {1, config.threads};
  for (int t = 0; t < 2; ++t) {
    double run = 0;
    double seconds = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::size_t n = i == 0 ? example1_draws * 2 : p2p_draws;
      const Span span("campaign.run_campaign");
      const double start = now_s();
      run += static_cast<double>(
          campaign::run_campaign(*inputs[i].schedule,
                                 campaign.options_for(i, n, threads[t]))
              .scenarios_run);
      seconds += seconds_since(start);
    }
    rate[t] = ratio(run, seconds);
  }

  return {
      {"sim.run_summary_ns_per_event", ratio(queue_ns[0], events), "ns"},
      {"sim.heap_ns_per_event", ratio(queue_ns[1], events), "ns"},
      {"sim.calendar_ns_per_event", ratio(queue_ns[2], events), "ns"},
      {"sim.events_per_scenario", ratio(events, scenarios), "count"},
      {"campaign.scenario_gen_ns", ratio(gen_ns, draws), "ns"},
      {"campaign.canonical_ns", ratio(canonical_ns, draws), "ns"},
      {"campaign.oracle_judge_ns", ratio(judge_ns, draws), "ns"},
      {"campaign.scaling_4t_vs_1t", ratio(rate[1], rate[0]), "ratio"},
  };
}

/// Branch::fork on a half-run Fig. 22 branch, and the fixed cost of one
/// trivial certify_shard (a K=0 sweep of Fig. 17: one task, one branch).
Metrics certify_layer_probes(const CertifyWorkload& certify,
                             const Config& config) {
  const std::size_t forks = config.size == Size::kSmoke ? 2000 : 50000;
  const Simulator simulator(certify.fig22());
  Simulator::Branch branch = simulator.begin();
  simulator.advance_until(branch, certify.fig22().makespan() * 0.5);
  double fork_ns = 0;
  {
    const Span span("sim.fork");
    const double start = now_s();
    for (std::size_t i = 0; i < forks; ++i) {
      const Simulator::Branch copy = branch.fork();
      (void)copy;
    }
    fork_ns = seconds_since(start) * 1e9 / static_cast<double>(forks);
  }

  campaign::CertifySpec trivial;
  trivial.max_failures = 0;
  trivial.threads = 1;
  std::vector<double> shard_ms;
  for (int i = 0; i < 20; ++i) {
    const Span span("campaign.certify_shard");
    const double start = now_s();
    (void)campaign::certify_shard(certify.fig17(), trivial,
                                  campaign::CertifyShardSpec{},
                                  [](campaign::CertifyTaskPartial&&) {});
    shard_ms.push_back(seconds_since(start) * 1e3);
  }
  return {
      {"sim.fork_ns", fork_ns, "ns"},
      {"campaign.certify.shard_setup_ms", median(shard_ms), "ms"},
  };
}

/// Request parsing, problem parsing, and one small offline sweep of the
/// certifyd stream's first plan.
Metrics service_layer_probes(const CertifydWorkload& certifyd,
                             const Config& config) {
  const int repeats = config.size == Size::kSmoke ? 2 : 20;
  double parse_us = 0;
  double parsed = 0;
  {
    const Span span("service.parse_request");
    const double start = now_s();
    for (int r = 0; r < repeats; ++r) {
      for (const std::string& line : certifyd.request_lines()) {
        (void)service::parse_request(line);
        ++parsed;
      }
    }
    parse_us = seconds_since(start) * 1e6;
  }
  double read_us = 0;
  double read = 0;
  {
    const Span span("io.read_problem");
    const double start = now_s();
    for (int r = 0; r < repeats; ++r) {
      for (const std::string& text : certifyd.problem_texts()) {
        (void)io::read_problem(text);
        ++read;
      }
    }
    read_us = seconds_since(start) * 1e6;
  }

  const workload::OwnedProblem small =
      io::read_problem(certifyd.problem_texts().front()).value();
  const Schedule schedule = schedule_solution1(small.problem).value();
  campaign::CertifySpec spec;
  spec.threads = std::max(1u, config.threads / 2);
  std::vector<double> small_ms;
  for (int i = 0; i < 20; ++i) {
    const Span span("campaign.certify");
    const double start = now_s();
    (void)campaign::certify(schedule, spec);
    small_ms.push_back(seconds_since(start) * 1e3);
  }
  return {
      {"service.parse_request_us", ratio(parse_us, parsed), "us"},
      {"io.read_problem_us", ratio(read_us, read), "us"},
      {"campaign.certify.small_ms", median(small_ms), "ms"},
  };
}

/// Wall seconds one benchmark span costs, recorded and all; the probe
/// spans are dropped from the profiler afterwards.
double span_cost_s() {
  constexpr int kSpans = 200000;
  set_tracing(true);
  const double start = now_s();
  for (int i = 0; i < kSpans; ++i) {
    const Span span("trace.probe");
  }
  const double elapsed = seconds_since(start);
  set_tracing(false);
  ftsched::obs::Profiler::global().clear();
  return elapsed / kSpans;
}

template <typename Workload>
void traced_pass(Workload& workload, Checks& checks) {
  set_tracing(true);
  (void)workload.run_pass(checks);
  set_tracing(false);
}

/// Tracing overhead of `workload` in percent: the spans one traced pass
/// records, times what one span costs, over an untraced pass's wall time
/// (the median of two). Timing a traced pass against an untraced one
/// instead would drown the spans' cost in the machine's drift.
template <typename Workload>
double tracing_overhead_pct(Workload& workload, Checks& checks,
                            double span_s) {
  std::vector<double> untraced;
  for (int i = 0; i < 2; ++i) untraced.push_back(workload.run_pass(checks));
  const std::size_t before = spans_recorded();
  traced_pass(workload, checks);
  const double spans = static_cast<double>(spans_recorded() - before);
  return 100.0 * spans * span_s / median(untraced);
}

}  // namespace

Metrics run_traced(const Config& config, Checks& checks) {
  const double span_s = span_cost_s();
  CampaignWorkload campaign(config);
  CertifyWorkload certify(config);
  CertifydWorkload certifyd(config);
  campaign.warm_up();
  certify.warm_up();
  certifyd.warm_up();

  double overhead = 0;
  if (config.workload == "campaign") {
    overhead = tracing_overhead_pct(campaign, checks, span_s);
    traced_pass(certify, checks);
    traced_pass(certifyd, checks);
  } else if (config.workload == "certify") {
    overhead = tracing_overhead_pct(certify, checks, span_s);
    traced_pass(campaign, checks);
    traced_pass(certifyd, checks);
  } else {
    overhead = tracing_overhead_pct(certifyd, checks, span_s);
    traced_pass(campaign, checks);
    traced_pass(certify, checks);
  }

  set_tracing(true);
  Metrics layers;
  append(layers, campaign_layer_probes(campaign, config, checks));
  append(layers, certify_layer_probes(certify, config));
  append(layers, service_layer_probes(certifyd, config));
  append(layers, pruning_layer_metrics(certify, config, checks));
  set_tracing(false);

  campaign.final_checks(checks);
  certify.final_checks(checks);
  certifyd.final_checks(checks);

  const std::string stem = config.out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed);
  const std::vector<LayerTime> table = collect_spans(stem + ".trace.json");
  std::string text =
      "span                              calls     total_ms      self_ms\n";
  for (const LayerTime& layer : table) {
    char line[160];
    std::snprintf(line, sizeof line, "%-30s %8zu %12.3f %12.3f\n",
                  layer.name.c_str(), layer.calls, layer.total_ms,
                  layer.self_ms);
    text += line;
  }
  std::fputs(text.c_str(), stdout);
  {
    std::FILE* file = std::fopen((stem + ".layers.txt").c_str(), "w");
    if (file != nullptr) {
      std::fputs(text.c_str(), file);
      std::fclose(file);
    }
  }
  std::printf("chrome trace: %s.trace.json\n", stem.c_str());

  Metrics out = {
      {"sched.base_ms", mean_span_ms(table, "sched.base"), "ms"},
      {"sched.solution1_ms", mean_span_ms(table, "sched.solution1"), "ms"},
      {"sched.solution2_ms", mean_span_ms(table, "sched.solution2"), "ms"},
  };
  append(out, campaign.layer_metrics());
  append(out, certify.layer_metrics());
  append(out, certifyd.layer_metrics());
  append(out, layers);
  out.push_back({"trace.overhead_pct", overhead, "%"});
  return out;
}

}  // namespace ftbench
