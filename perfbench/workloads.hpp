// The three benchmark workloads. Each is generated in one process from the
// seed in Config; README.md says why each was chosen and which layers it
// loads. These files use only default certification specs and no API that
// exists only for certification pruning: those belong to pruning_layer.cpp,
// which only the traced run calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/certify.hpp"
#include "campaign/runner.hpp"
#include "sched/schedule.hpp"
#include "workload/paper_examples.hpp"

namespace ftbench {

/// A problem and one schedule of it. Heap-held so the schedule's pointer
/// to the problem survives moves of the owning container.
struct ScheduledProblem {
  std::string name;
  std::unique_ptr<ftsched::workload::OwnedProblem> owned;
  std::optional<ftsched::Schedule> schedule;
};

// ---------------------------------------------------------------------------
// campaign: synthesis (base, Solution 1, Solution 2) of generated problems,
// then randomized multi-iteration fault-injection campaigns on example 1
// (Solution 1, bus) and generated point-to-point Solution 2 problems.
class CampaignWorkload {
 public:
  explicit CampaignWorkload(const Config& config);
  void warm_up();
  double run_pass(Checks& checks);
  void final_checks(Checks& checks);
  [[nodiscard]] Metrics end_to_end() const;
  [[nodiscard]] Metrics details() const;
  [[nodiscard]] Metrics layer_metrics() const;

  /// The campaign inputs and the options every campaign of them uses.
  [[nodiscard]] const std::vector<ScheduledProblem>& campaign_inputs() const {
    return inputs_;
  }
  [[nodiscard]] ftsched::campaign::CampaignOptions options_for(
      std::size_t input, std::size_t scenarios, unsigned threads) const;

 private:
  struct Outcome {
    std::size_t violations = 0;
    std::size_t within_contract = 0;
    std::size_t expected_losses = 0;
    std::size_t unique = 0;
    std::size_t duplicates = 0;
    friend bool operator==(const Outcome&, const Outcome&) = default;
  };
  static Outcome outcome_of(const ftsched::campaign::CampaignReport& report);
  [[nodiscard]] double scenarios_per_s() const;

  Config config_;
  std::vector<std::unique_ptr<ftsched::workload::OwnedProblem>> synth_;
  /// Per synthesis problem: the first pass's schedule hashes, and the
  /// latest pass's schedules (validated in final_checks).
  std::vector<std::vector<std::uint64_t>> synth_hashes_;
  std::vector<std::vector<ftsched::Schedule>> last_schedules_;
  /// Campaign inputs, scenarios per campaign, first pass's outcomes.
  std::vector<ScheduledProblem> inputs_;
  std::vector<std::size_t> scenarios_;
  std::vector<std::optional<Outcome>> first_outcome_;

  /// Per synthesis problem and per campaign input: its time in each pass.
  std::vector<std::vector<double>> synth_ms_;
  std::vector<std::vector<double>> campaign_s_;
  double scenarios_run_ = 0;
  double duplicates_ = 0;
  double cached_replays_ = 0;
};

// ---------------------------------------------------------------------------
// certify: deep-budget exhaustive certification of the paper's schedules,
// the golden certificates, counterexample-guided repair and frontier sweeps.
class CertifyWorkload {
 public:
  explicit CertifyWorkload(const Config& config);
  void warm_up();
  double run_pass(Checks& checks);
  void final_checks(Checks& checks);
  [[nodiscard]] Metrics end_to_end() const;
  [[nodiscard]] Metrics details() const;
  [[nodiscard]] Metrics layer_metrics() const;

  /// Fig. 22 (Solution 2 of the paper's example 2), Fig. 17 (Solution 1 of
  /// example 1) and the base schedule of example 1.
  [[nodiscard]] const ftsched::Schedule& fig22() const;
  [[nodiscard]] const ftsched::Schedule& fig17() const;
  [[nodiscard]] const ftsched::Schedule& fig17_base() const;

 private:
  /// One certify() call and its known answer.
  struct Sweep {
    std::string name;
    std::size_t problem = 0;
    ftsched::campaign::CertifySpec spec;
    bool certified = false;
    std::size_t branches = 0;
    std::size_t counterexamples = 0;
    /// Non-empty: the certificate must equal these bytes.
    std::string golden;
  };
  struct Frontier {
    std::size_t problem = 0;
    std::size_t explored = 0;
    std::size_t implied = 0;
    std::size_t surface = 0;
    std::string first_json;
  };
  /// Each runs one job, checks it, and returns its wall seconds.
  double run_sweep(const Sweep& sweep, Checks& checks);
  double run_repair(Checks& checks);
  double run_frontier(Frontier& frontier, Checks& checks);
  /// Sum of the median times of jobs [first, last).
  [[nodiscard]] double median_seconds(std::size_t first,
                                      std::size_t last) const;

  Config config_;
  std::vector<ScheduledProblem> problems_;
  std::vector<Sweep> sweeps_;
  std::vector<Frontier> frontiers_;
  std::unique_ptr<ftsched::workload::OwnedProblem> repair_problem_;
  std::size_t passes_ = 0;

  /// Per job (sweeps, repair, frontiers): its wall seconds in each pass.
  std::vector<std::vector<double>> job_s_;
  double branches_ = 0;
  double forks_ = 0;
  double events_ = 0;
  double instants_kept_ = 0;
  double instants_merged_ = 0;
  double repair_rounds_ = 0;
  double repair_reused_ = 0;
  double repair_confirmed_ = 0;
  double points_explored_ = 0;
  double points_implied_ = 0;
};

// ---------------------------------------------------------------------------
// certifyd: a closed loop of two client threads calling one in-process
// CertifyService through handle_line, then a 4-shard certify_stream of
// data/certify_k2.ft merged by merge_streams.
class CertifydWorkload {
 public:
  explicit CertifydWorkload(const Config& config);
  void warm_up();
  double run_pass(Checks& checks);
  void final_checks(Checks& checks);
  [[nodiscard]] Metrics end_to_end() const;
  [[nodiscard]] Metrics details() const;
  [[nodiscard]] Metrics layer_metrics() const;

  /// Problem texts of the submit stream and the request lines (submits of
  /// every plan, then one status request).
  [[nodiscard]] const std::vector<std::string>& problem_texts() const {
    return texts_;
  }
  [[nodiscard]] const std::vector<std::string>& request_lines() const {
    return lines_;
  }

 private:
  struct Plan {
    std::size_t text = 0;
    bool solution2 = false;
  };
  /// A served result: the plan's line and the record's verdict fields.
  struct Answer {
    std::size_t line = 0;
    std::string verdict;
  };

  Config config_;
  unsigned request_threads_ = 2;
  std::vector<std::string> texts_;
  std::vector<Plan> plans_;
  std::vector<std::string> lines_;
  /// The line indices the clients send, in order, in every pass.
  std::vector<std::size_t> sequence_;
  std::unique_ptr<ftsched::workload::OwnedProblem> k2_;
  std::optional<ftsched::Schedule> k2_schedule_;
  std::string golden_k2_;

  /// Every request's latency, all passes (two passes put about sixteen
  /// requests beyond p99); each closed-loop round and sharded phase.
  std::vector<double> latency_ms_;
  std::vector<double> round_s_;
  std::vector<double> sharded_s_;
  std::vector<double> hit_ms_;
  std::vector<double> miss_ms_;
  std::vector<Answer> answers_;
  double submits_ = 0;
  double hits_ = 0;
  std::vector<double> encode_ms_;
  std::vector<double> merge_ms_;
};

}  // namespace ftbench
