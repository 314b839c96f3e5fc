#include "tuning/transient_analysis.hpp"

#include <algorithm>

#include "sim/simulator.hpp"

namespace ftsched {

std::vector<Time> representative_instants(const Trace& trace, Time min_time) {
  return representative_instants(trace, min_time, {});
}

std::vector<Time> representative_instants(
    const Trace& trace, Time min_time, const std::vector<Time>& extra_dates) {
  std::vector<Time> instants;
  representative_instants(trace, min_time, extra_dates, instants);
  return instants;
}

void representative_instants(const Trace& trace, Time min_time,
                             const std::vector<Time>& extra_dates,
                             std::vector<Time>& out) {
  const auto same = [](Time a, Time b) { return time_eq(a, b); };
  // The distinct dates...
  out.clear();
  for (const TraceEvent& event : trace.events()) out.push_back(event.time);
  for (const Time date : extra_dates) {
    if (!is_infinite(date)) out.push_back(date);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end(), same), out.end());
  // ...plus the midpoint of each consecutive pair and min_time itself,
  // keeping only instants >= min_time.
  const std::size_t dates = out.size();
  for (std::size_t i = 0; i + 1 < dates; ++i) {
    out.push_back((out[i] + out[i + 1]) / 2);
  }
  out.push_back(min_time);
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](Time t) { return !time_ge(t, min_time); }),
            out.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end(), same), out.end());
}

TransientReport analyze_transient(const Schedule& schedule) {
  const Simulator simulator(schedule);
  const IterationResult nominal = simulator.run();
  const std::vector<Time> instants =
      representative_instants(nominal.trace, 0);

  TransientReport report;
  report.nominal_response = nominal.response_time;
  const std::size_t procs =
      schedule.problem().architecture->processor_count();
  report.worst_by_victim.assign(procs, 0);

  std::vector<Time> worst(procs, 0);
  auto consider = [&](std::size_t p, const IterationResult& run) {
    worst[p] = std::max(worst[p], run.response_time);
    report.worst_timeouts =
        std::max(report.worst_timeouts,
                 run.trace.count(TraceEvent::Kind::kTimeout));
  };

  for (std::size_t p = 0; p < procs; ++p) {
    const ProcessorId victim{static_cast<ProcessorId::underlying_type>(p)};
    consider(p, simulator.run(FailureScenario::dead_from_start({victim})));
  }

  // Shared-prefix sweep: one failure-free cursor advanced monotonically;
  // each (victim, instant) branch forks the paused prefix instead of
  // replaying [0, instant) from scratch.
  Simulator::Branch cursor = simulator.begin();
  for (const Time at : instants) {
    simulator.advance_until(cursor, at);
    for (std::size_t p = 0; p < procs; ++p) {
      const ProcessorId victim{static_cast<ProcessorId::underlying_type>(p)};
      Simulator::Branch branch = cursor.fork();
      simulator.inject(branch, FailureEvent{victim, at});
      consider(p, simulator.finish(std::move(branch)));
    }
  }

  for (std::size_t p = 0; p < procs; ++p) {
    const ProcessorId victim{static_cast<ProcessorId::underlying_type>(p)};
    report.worst_by_victim[p] = worst[p];
    if (time_gt(worst[p], report.worst_response) ||
        !report.worst_victim.valid()) {
      report.worst_response = std::max(report.worst_response, worst[p]);
      if (time_eq(report.worst_response, worst[p])) {
        report.worst_victim = victim;
      }
    }
  }
  return report;
}

}  // namespace ftsched
