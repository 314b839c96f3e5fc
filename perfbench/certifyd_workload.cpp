// certifyd workload: the same certifier as the certify workload, but as
// many tiny sweeps behind the line protocol, where per-call fixed costs
// dominate: request parsing, problem parsing, synthesis, the plan key, the
// result cache, per-sweep set-up and JSON emission. Closed loop: two
// client threads each wait for their previous answer before sending the
// next request, like CI callers waiting for a certificate.
#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "campaign/certify.hpp"
#include "io/problem_format.hpp"
#include "obs/json_util.hpp"
#include "sched/heuristics.hpp"
#include "service/server.hpp"
#include "service/shard.hpp"
#include "workload/random_arch.hpp"
#include "workloads.hpp"

namespace ftbench {
namespace {

using namespace ftsched;

constexpr std::size_t kClients = 2;
constexpr std::size_t kShards = 4;
constexpr int kShardedRepeats = 3;

struct Traffic {
  std::size_t small_problems = 0;
  std::size_t k2_problems = 0;
  std::size_t requests = 0;
};

/// 96 small problems under both heuristics give 192 distinct plans, three
/// times the service's default 64-entry plan-key cache, so LRU eviction
/// runs and about a third of submits hit. 800 requests per pass put about
/// ten beyond p99.
Traffic traffic(Size size) {
  if (size == Size::kSmoke) return {6, 1, 60};
  return {96, 4, 800};
}

std::string submit_line(const std::string& id, const char* heuristic,
                        unsigned threads, const std::string& problem) {
  return "{\"type\":\"submit\",\"id\":" + obs::json_string(id) +
         ",\"heuristic\":\"" + heuristic +
         "\",\"threads\":" + std::to_string(threads) +
         ",\"problem_inline\":" + obs::json_string(problem) + "}";
}

/// The line of `records` holding a record of `type`, or empty.
std::string record_of(const std::string& records, const std::string& type) {
  const std::size_t at = records.find("{\"type\":\"" + type + "\"");
  if (at == std::string::npos) return {};
  const std::size_t end = records.find('\n', at);
  return records.substr(at, end == std::string::npos ? end : end - at);
}

/// Everything a result record says about the verdict, from `certified` on.
std::string verdict_fields(const std::string& result) {
  const std::size_t at = result.find(",\"certified\":");
  return at == std::string::npos ? std::string() : result.substr(at);
}

}  // namespace

CertifydWorkload::CertifydWorkload(const Config& config)
    : config_(config), request_threads_(std::max(1u, config.threads / 2)) {
  const Traffic shape = traffic(config.size);
  std::uint64_t stream = 0;
  const auto add_problem = [&](std::size_t ops, int k) {
    workload::RandomProblemParams params;
    params.dag.operations = ops;
    params.dag.seed = derive_seed(config.seed, ++stream);
    params.processors = 4;
    params.failures_to_tolerate = k;
    params.seed = derive_seed(config.seed, ++stream);
    texts_.push_back(io::write_problem(workload::random_problem(params).problem));
  };
  // Small K=1 problems of 10 to 24 operations (a fixed grid; the seed
  // changes each DAG and its timing tables), then the K=2 problems.
  for (std::size_t i = 0; i < shape.small_problems; ++i) add_problem(10 + i % 15, 1);
  for (std::size_t i = 0; i < shape.k2_problems; ++i) add_problem(10, 2);

  // Plans: small problems under both heuristics, K=2 problems under
  // Solution 2; one prebuilt submit line each, then the status line.
  for (std::size_t text = 0; text < texts_.size(); ++text) {
    const bool small = text < shape.small_problems;
    for (const bool solution2 : {false, true}) {
      if (!small && !solution2) continue;
      const char* heuristic = solution2 ? "solution2" : "solution1";
      plans_.push_back({text, solution2});
      lines_.push_back(submit_line("plan" + std::to_string(plans_.size() - 1),
                                   heuristic, request_threads_, texts_[text]));
    }
  }
  const std::size_t small_plans = 2 * shape.small_problems;
  const std::size_t status_line = lines_.size();
  lines_.push_back("{\"type\":\"status\",\"id\":\"status\"}");

  // Each request is a status request (1 in 20), a submit of a K=2 plan
  // (1 in 200), a repeat of a small plan submitted 16 to 48 requests
  // earlier (a third of the rest), or else the next small plan of a seeded
  // cyclic order. Repeats sit well inside the 64-entry plan-key cache and
  // cyclic submits, 192 distinct plans apart, well outside it, so which
  // submits hit hardly depends on how the two clients interleave.
  std::uint64_t state = derive_seed(config.seed, 9000);
  std::vector<std::size_t> order(small_plans);
  for (std::size_t i = 0; i < small_plans; ++i) order[i] = i;
  for (std::size_t i = small_plans; i > 1; --i) {
    state = derive_seed(state, i);
    std::swap(order[i - 1], order[state % i]);
  }
  std::size_t cyclic = 0;
  for (std::size_t r = 0; r < shape.requests; ++r) {
    state = derive_seed(state, r);
    const std::uint64_t draw = state % 200;
    const std::uint64_t pick = state >> 16;
    if (draw < 10) {
      sequence_.push_back(status_line);
    } else if (draw < 11 && status_line > small_plans) {
      sequence_.push_back(small_plans + pick % (status_line - small_plans));
    } else if ((draw - 11) % 3 == 0 && r >= 48 &&
               sequence_[r - 16 - pick % 33] < small_plans) {
      sequence_.push_back(sequence_[r - 16 - pick % 33]);
    } else {
      sequence_.push_back(order[cyclic++ % small_plans]);
    }
  }

  k2_ = std::make_unique<workload::OwnedProblem>(
      io::read_problem(read_file("data/certify_k2.ft")).value());
  k2_schedule_ = schedule_solution2(k2_->problem).value();
  golden_k2_ = read_file("data/golden/certify_k2.cert.json");
}

void CertifydWorkload::warm_up() {
  // One submit spins the certifier's worker pool.
  service::CertifyService warm{service::ServeOptions{}};
  service::StringSink sink;
  (void)warm.handle_line(lines_.front(), sink);
}

double CertifydWorkload::run_pass(Checks& checks) {
  const Span pass_span("bench.pass.certifyd");
  const double pass_start = now_s();

  // A fresh daemon per pass, so every pass sees the same cold start.
  service::CertifyService service{service::ServeOptions{}};
  struct Seen {
    std::size_t line = 0;
    double ms = 0;
    std::string records;
  };
  std::vector<std::vector<Seen>> seen(kClients);
  std::vector<std::exception_ptr> errors(kClients);
  // Each client takes the next request of the sequence once its previous
  // one is answered, so neither idles while the other is busy.
  std::atomic<std::size_t> next{0};
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          for (std::size_t k = next++; k < sequence_.size(); k = next++) {
            const std::size_t line = sequence_[k];
            service::StringSink sink;
            const double start = now_s();
            {
              const Span span("service.handle_line");
              (void)service.handle_line(lines_[line], sink);
            }
            seen[c].push_back({line, seconds_since(start) * 1e3, sink.text()});
          }
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
  }
  round_s_.push_back(seconds_since(pass_start));

  for (std::size_t c = 0; c < kClients; ++c) {
    checks.expect(errors[c] == nullptr,
                  "client " + std::to_string(c) + " threw");
    for (const Seen& request : seen[c]) {
      latency_ms_.push_back(request.ms);
      if (request.line >= plans_.size()) {
        checks.expect(!record_of(request.records, "status").empty(),
                      "status request got no status record");
        continue;
      }
      ++submits_;
      const std::string result = record_of(request.records, "result");
      const bool hit = result.find("\"cache\":\"hit\"") != std::string::npos;
      hits_ += hit ? 1 : 0;
      (hit ? hit_ms_ : miss_ms_).push_back(request.ms);
      checks.expect(!result.empty() &&
                        record_of(request.records, "error").empty(),
                    "submit of plan " + std::to_string(request.line) +
                        " got no result record");
      answers_.push_back({request.line, verdict_fields(result)});
    }
  }

  // Sharded phase: four worker streams of certify_k2 at K=2, merged.
  const campaign::CertifySpec spec = [&] {
    campaign::CertifySpec out;
    out.threads = config_.threads;
    return out;
  }();
  for (int repeat = 0; repeat < kShardedRepeats; ++repeat) {
    const double start = now_s();
    std::vector<std::string> streams;
    bool completed = true;
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      const Span span("service.certify_stream");
      service::StringSink sink;
      completed = service::certify_stream(*k2_schedule_, spec,
                                          campaign::CertifyShardSpec{shard, kShards},
                                          sink)
                      .completed &&
                  completed;
      streams.push_back(sink.text());
    }
    const double encoded = now_s();
    Expected<campaign::CertifyReport> merged = [&] {
      const Span span("service.merge_streams");
      return service::merge_streams(*k2_schedule_, spec, streams);
    }();
    const double done = now_s();
    encode_ms_.push_back((encoded - start) * 1e3);
    merge_ms_.push_back((done - encoded) * 1e3);
    sharded_s_.push_back(done - start);
    checks.expect(completed && merged.has_value() &&
                      merged.value().to_json(*k2_->problem.architecture) ==
                          golden_k2_,
                  "merged sharded certificate differs from the unsharded one");
  }
  return seconds_since(pass_start);
}

void CertifydWorkload::final_checks(Checks& checks) {
  // Every served verdict must match offline certify() of the same plan.
  std::vector<std::string> expected(plans_.size());
  for (const Answer& answer : answers_) {
    std::string& want = expected[answer.line];
    if (want.empty()) {
      const Plan& plan = plans_[answer.line];
      const workload::OwnedProblem owned =
          io::read_problem(texts_[plan.text]).value();
      const Schedule sched =
          (plan.solution2 ? schedule_solution2(owned.problem)
                          : schedule_solution1(owned.problem))
              .value();
      campaign::CertifySpec spec;
      spec.threads = config_.threads;
      const campaign::CertifyReport report = campaign::certify(sched, spec);
      const std::size_t branches =
          report.branches + (config_.plant_wrong_answer ? 1 : 0);
      want = std::string(",\"certified\":") +
             (report.certified ? "true" : "false") +
             ",\"branches\":" + std::to_string(branches) +
             ",\"counterexamples\":" +
             std::to_string(report.total_counterexamples) +
             ",\"worst_response\":" + obs::json_number(report.worst_response) +
             ",\"certificate_bytes\":" +
             std::to_string(report.to_json(*owned.problem.architecture).size()) +
             "}";
    }
    checks.expect(answer.verdict == want,
                  "served verdict for plan " + std::to_string(answer.line) +
                      " differs from offline certify(): " + answer.verdict);
  }
}

Metrics CertifydWorkload::end_to_end() const {
  return {
      {"latency_ms", median(latency_ms_), "ms"},
      {"tail_ms", percentile(latency_ms_, 0.99), "ms"},
      {"throughput_per_s",
       ratio(static_cast<double>(sequence_.size()), median(round_s_)),
       "1/s"},
  };
}

Metrics CertifydWorkload::details() const {
  Metrics out = end_to_end();
  out[0].name = "request_p50_ms";
  out[1].name = "request_p99_ms";
  out[2].name = "requests_per_s";
  out.push_back({"sharded_certify_s", median(sharded_s_), "s"});
  out.push_back({"cache_hit_ratio", ratio(hits_, submits_), "ratio"});
  return out;
}

Metrics CertifydWorkload::layer_metrics() const {
  return {
      {"service.cache_hit_ratio", ratio(hits_, submits_), "ratio"},
      {"service.cold_p50_ms", median(miss_ms_), "ms"},
      {"service.warm_p50_ms", median(hit_ms_), "ms"},
      {"service.stream_encode_ms", median(encode_ms_), "ms"},
      {"service.merge_ms", median(merge_ms_), "ms"},
  };
}

}  // namespace ftbench
