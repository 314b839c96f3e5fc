// The certification pruning layer, measured from the traced run only: the
// subtree memo's counters on the single-threaded path (the only path where
// they are deterministic), the slack cut's count, and the prune-off twin of
// the gated fig22 K=2+S=1 sweep. Every API that exists only for pruning is
// referenced here and nowhere else in the benchmark, through `requires`
// probes, so the benchmark still builds and runs unchanged if the library
// drops the memo: the counters then read 0 and the twin times the one path
// left.
#include <string>

#include "campaign/certify.hpp"
#include "layers.hpp"

namespace ftbench {
namespace {

using namespace ftsched;

template <typename Spec>
void prune_off(Spec& spec) {
  if constexpr (requires { spec.prune = false; }) spec.prune = false;
}

template <typename Report>
double memo_hit_ratio(const Report& report) {
  if constexpr (requires { report.memo_hits + report.memo_probes; }) {
    return ratio(static_cast<double>(report.memo_hits),
                 static_cast<double>(report.memo_probes));
  } else {
    return 0;
  }
}

template <typename Report>
double memo_replayed(const Report& report) {
  if constexpr (requires { report.memo_branches_replayed; }) {
    return static_cast<double>(report.memo_branches_replayed);
  } else {
    return 0;
  }
}

template <typename Report>
double slack_cuts(const Report& report) {
  if constexpr (requires { report.slack_cuts; }) {
    return static_cast<double>(report.slack_cuts);
  } else {
    return 0;
  }
}

campaign::CertifyReport timed_certify(const Schedule& schedule,
                                      const campaign::CertifySpec& spec,
                                      double& seconds) {
  const Span span("campaign.certify");
  const double start = now_s();
  campaign::CertifyReport report = campaign::certify(schedule, spec);
  seconds = seconds_since(start);
  return report;
}

}  // namespace

Metrics pruning_layer_metrics(const CertifyWorkload& certify,
                              const Config& config, Checks& checks) {
  campaign::CertifySpec k2s1;
  k2s1.max_failures = 2;
  k2s1.max_silences = 1;
  k2s1.threads = 1;
  double seconds = 0;
  const campaign::CertifyReport single =
      timed_certify(certify.fig22(), k2s1, seconds);

  campaign::CertifySpec slack;
  slack.max_silences = 2;
  slack.response_bound = certify.fig17_base().makespan() * 0.5;
  slack.max_counterexamples = 2;
  slack.threads = 1;
  const campaign::CertifyReport cut =
      timed_certify(certify.fig17_base(), slack, seconds);

  k2s1.threads = config.threads;
  double on_s = 0;
  double off_s = 0;
  const campaign::CertifyReport on = timed_certify(certify.fig22(), k2s1, on_s);
  prune_off(k2s1);
  const campaign::CertifyReport off =
      timed_certify(certify.fig22(), k2s1, off_s);
  const ArchitectureGraph& arch = *certify.fig22().problem().architecture;
  checks.expect(on.to_json(arch) == off.to_json(arch) &&
                    single.to_json(arch) == on.to_json(arch),
                "fig22 K=2+S=1 certificate differs with pruning off or "
                "single-threaded");

  return {
      {"campaign.certify.memo_hit_ratio", memo_hit_ratio(single), "ratio"},
      {"campaign.certify.memo_replayed", memo_replayed(single), "count"},
      {"campaign.certify.slack_cuts", slack_cuts(cut), "count"},
      {"campaign.certify.prune_on_s", on_s, "s"},
      {"campaign.certify.prune_off_s", off_s, "s"},
  };
}

}  // namespace ftbench
