// campaign_tool: the adversarial fault-injection campaign as a shell
// command — load a problem, build a schedule, hammer it with seeded random
// failure scenarios in parallel, and shrink any oracle violation to a
// minimal serialized reproducer:
//
//   ./campaign_tool --example1 --solution1 --seed 42 --scenarios 5000
//   ./campaign_tool --example1 --solution1 --scenarios 20000 --threads 8
//   ./campaign_tool --example1 --base --claim-k 1 --shrink    # has to fail
//   ./campaign_tool problem.ft --solution2 --links --iterations 4
//   ./campaign_tool --example1 --solution1 --replay repro.scenario
//   ./campaign_tool --example1 --solution1 --certify --certify-out cert.json
//   ./campaign_tool --example1 --solution1 --certify --certify-links 1
//   ./campaign_tool --example1 --solution1 --certify-silences 1
//                   --response-bound 42.5
//   ./campaign_tool problem.ft --solution2 --claim-k 1 --certify-links 1
//                   --repair --repair-out repair.json
//   ./campaign_tool --example1 --solution1 --frontier --frontier-out f.json
//   ./campaign_tool problem.ft --solution2 --plan-key
//   ./campaign_tool problem.ft --solution2 --certify-shard 0/2
//                   --stream-out shard0.ndjson
//   ./campaign_tool problem.ft --solution2 --merge-stream shard0.ndjson
//                   --merge-stream shard1.ndjson --certify-out cert.json
//   ./campaign_tool --serve --cache-size 64            # stdin/stdout pipe
//   ./campaign_tool --serve-socket /tmp/certifyd.sock  # certifyd daemon
//
// One function per mode below; run() picks the mode by the precedence
// serve > plan-key > shard > merge > frontier > replay > repair > certify
// > campaign, so --repair wins over the --certify that --certify-links
// implies. usage() documents every flag and the exit status; the engines
// behind the modes are campaign/certify.hpp, campaign/frontier.hpp,
// campaign/repair.hpp and src/service.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/certify.hpp"
#include "campaign/frontier.hpp"
#include "campaign/repair.hpp"
#include "campaign/runner.hpp"
#include "campaign/shrink.hpp"
#include "io/cli_util.hpp"
#include "io/scenario_format.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/span.hpp"
#include "sched/heuristics.hpp"
#include "service/cache.hpp"
#include "service/server.hpp"
#include "service/shard.hpp"
#include "service/stream.hpp"
#include "sim/mission.hpp"
#include "sim/simulator.hpp"

using namespace ftsched;

namespace {

constexpr const char* kTool = "campaign_tool";

int usage() {
  std::fprintf(
      stderr,
      "usage: campaign_tool <file | --example1 | --example2>\n"
      "                     [--base | --solution1 | --solution2]\n"
      "                     [--seed N] [--scenarios N] [--threads N]\n"
      "                     [--claim-k K] [--iterations MAX]\n"
      "                     [--overbudget FRACTION] [--links] [--silence]\n"
      "                     [--suspects] [--shrink] [--replay FILE]\n"
      "                     [--certify] [--certify-out FILE]\n"
      "                     [--certify-links L] [--certify-silences S]\n"
      "                     [--response-bound T]\n"
      "                     [--latency NAME:SRC:SINK:BOUND]...\n"
      "                     [--frontier] [--frontier-k K]\n"
      "                     [--frontier-links L] [--frontier-silences S]\n"
      "                     [--frontier-out FILE]\n"
      "                     [--repair] [--repair-rounds N]\n"
      "                     [--repair-out FILE]\n"
      "                     [--metrics-out FILE] [--trace-out FILE]\n"
      "                     [--plan-key] [--certify-shard I/N]\n"
      "                     [--stream-out FILE] [--merge-stream FILE]...\n"
      "                     [--serve | --serve-socket PATH]\n"
      "                     [--cache-size N] [--serve-threads N]\n"
      "\n"
      "--certify exhaustively certifies the schedule against every\n"
      "failure pattern of size <= K (--claim-k, default the schedule's\n"
      "own tolerance) and writes the machine-readable certificate or\n"
      "refutation to --certify-out. --certify-links L adds up to L link\n"
      "deaths per branch (budgeted separately from K), --certify-silences\n"
      "S adds up to S fail-silent windows; --response-bound T makes both\n"
      "the certifier and the oracle enforce response <= T (+ the longest\n"
      "injected silent window).\n"
      "--latency NAME:SRC:SINK:BOUND (repeatable) adds a named chain\n"
      "constraint — every surviving replica path from SRC's operation to\n"
      "SINK's must complete within BOUND — checked by the oracle, the\n"
      "certifier, the shrinker, repair and certifyd alongside the global\n"
      "response bound; refuting branches name the violated constraints.\n"
      "--frontier sweeps the (K, L, S) budget lattice outward from\n"
      "(0,0,0) up to --frontier-k/--frontier-links/--frontier-silences\n"
      "(defaults: the schedule's own tolerance + 1, 1, 1), certifying\n"
      "each point and reporting the maximal certifiable surface, the\n"
      "first refuting counterexample at each boundary point and the\n"
      "Goemans-Lynch-Saias upper bounds; --frontier-out writes the JSON\n"
      "report (byte-identical for any --threads).\n"
      "--repair turns a refuted schedule into a certified one by\n"
      "counterexample-guided repair under the same budgets: each round\n"
      "shrinks a counterexample, applies one targeted move (re-place a\n"
      "replica, re-route a send, widen a timeout chain) and re-certifies\n"
      "incrementally through a leaf cache. --repair-rounds caps the\n"
      "accepted moves; --repair-out writes the JSON repair log\n"
      "(byte-identical for any --threads).\n"
      "--plan-key prints the canonical plan fingerprint for the certify\n"
      "budgets in effect (--claim-k/--certify-links/--certify-silences/\n"
      "--response-bound) — the key certifyd's result cache uses, so two\n"
      "problems printing the same key are isomorphic plans that share a\n"
      "cache entry. --certify-shard I/N certifies only task indices\n"
      "congruent to I mod N and streams NDJSON partial-certificate\n"
      "records to --stream-out (default stdout); --merge-stream (repeat\n"
      "per worker stream) validates and merges complete shard streams\n"
      "into a certificate byte-identical to single-process --certify.\n"
      "--serve reads line-delimited JSON requests from stdin (CI pipe\n"
      "mode); --serve-socket listens on a Unix-domain socket; both keep\n"
      "an LRU result cache of --cache-size plans (0 disables) and drain\n"
      "gracefully on SIGINT. --serve-threads N serves up to N socket\n"
      "connections concurrently (default 1, sequential) against the one\n"
      "shared cache; service.* metrics merge per request, so totals are\n"
      "independent of how connections interleave.\n"
      "--metrics-out writes the merged domain metrics of a campaign,\n"
      "certify, repair or merge run as JSON (deterministic for a given\n"
      "seed, any thread count); --trace-out writes any mode's profiling\n"
      "spans as Chrome trace-event JSON (open in chrome://tracing or\n"
      "https://ui.perfetto.dev). An output flag the selected mode does\n"
      "not write is a usage error.\n"
      "\n"
      "exit status: 0 clean/certified/repaired, 1 refuted, 2 usage error\n"
      "(an unwritable output file included), 3 input file unreadable or\n"
      "malformed (diagnostic names the file and the offending line).\n");
  return 2;
}

/// The modes in selection order (see select_mode).
enum class Mode {
  kServe, kPlanKey, kShard, kMerge, kFrontier, kReplay, kRepair, kCertify,
  kCampaign
};

const char* const kModeNames[] = {"serve",  "plan-key", "shard",
                                  "merge",  "frontier", "replay",
                                  "repair", "certify",  "campaign"};

/// Every flag, parsed once.
struct Options {
  io::ProblemFlags problem;
  campaign::CampaignOptions campaign = io::default_campaign_options();
  bool shrink = false;
  // The modes the flags ask for; select_mode picks one.
  bool certify = false;
  bool repair = false;
  bool frontier = false;
  bool plan_key = false;
  bool shard = false;
  bool serve = false;
  int certify_links = 0;
  int certify_silences = 0;
  int repair_rounds = campaign::RepairSpec{}.max_rounds;
  campaign::FrontierSpec frontier_spec;
  campaign::CertifyShardSpec shard_spec;
  std::vector<std::string> merge_streams;
  std::string replay_file;
  service::ServeOptions serve_options;
  std::string serve_socket;
  // Output files, empty when not requested.
  std::string certify_out;
  std::string repair_out;
  std::string frontier_out;
  std::string stream_out;
  std::string metrics_out;
  std::string trace_out;
};

/// kOk -> true, kMalformed -> false (a usage error). An out-of-range
/// operand throws: main() prints "campaign_tool: <reason>" and exits 3,
/// the treatment a malformed input file gets, because the operand LOOKED
/// numeric and silently saturating it would run a different command.
bool accepted(io::ParseStatus status, const std::string& flag,
              const char* text) {
  if (status == io::ParseStatus::kOutOfRange) {
    throw std::invalid_argument(flag + " operand \"" + text +
                                "\" is out of range");
  }
  return status == io::ParseStatus::kOk;
}

/// Appends a "--latency NAME:SRC:SINK:BOUND" operand (names resolve
/// against the schedule's algorithm graph later, like every certifier
/// entry point); false for a missing or malformed operand.
bool parse_latency(const char* text,
                   std::vector<campaign::LatencyConstraint>& out) {
  if (text == nullptr) return false;
  const std::string s = text;
  const std::size_t a = s.find(':');
  if (a == std::string::npos) return false;
  const std::size_t b = s.find(':', a + 1);
  if (b == std::string::npos) return false;
  const std::size_t c = s.find(':', b + 1);
  if (c == std::string::npos) return false;
  campaign::LatencyConstraint latency;
  latency.name = s.substr(0, a);
  latency.source_op = s.substr(a + 1, b - a - 1);
  latency.sink_op = s.substr(b + 1, c - b - 1);
  if (latency.name.empty() || latency.source_op.empty() ||
      latency.sink_op.empty()) {
    return false;
  }
  const char* bound = s.c_str() + c + 1;
  if (!accepted(io::parse_time(bound, latency.bound), "--latency", bound)) {
    return false;
  }
  out.push_back(latency);
  return true;
}

/// The argv cursor. Operand readers consume the next argument and are
/// false when it is missing or malformed.
struct Args {
  Args(int count, char** values) : argc(count), argv(values) {}

  int argc;
  char** argv;
  int i = 1;
  std::string flag;

  /// The next argument, or null when `flag` is the last one.
  const char* operand() { return i + 1 < argc ? argv[++i] : nullptr; }

  template <typename Value>
  bool read(io::ParseStatus (*parse)(const char*, Value&), Value& out) {
    const char* text = operand();
    return text != nullptr && accepted(parse(text, out), flag, text);
  }
  /// An integer operand of at least `min`, into any integer field.
  template <typename Int>
  bool number(Int& out, long min = 0) {
    long n = 0;
    if (!read(io::parse_number, n) || n < min) return false;
    out = static_cast<Int>(n);
    return true;
  }
  bool fraction(double& out) { return read(io::parse_fraction, out); }
  bool time(double& out) { return read(io::parse_time, out); }
  bool path(std::string& out) {
    const char* text = operand();
    if (text != nullptr) out = text;
    return text != nullptr;
  }
  bool shard(campaign::CertifyShardSpec& out) {
    const char* text = operand();
    return text != nullptr &&
           accepted(io::parse_shard(text, out.shard_index, out.shard_count),
                    flag, text);
  }
};

/// Assigns and reports success, so a flag that sets a field is one line.
template <typename Field, typename Value>
bool set(Field& field, Value value) {
  field = value;
  return true;
}

/// One flag other than the problem flags; false when it is unknown or its
/// operand is missing or malformed.
bool parse_flag(Args& args, Options& o) {
  campaign::CampaignOptions& c = o.campaign;
  campaign::FrontierSpec& frontier = o.frontier_spec;
  const std::string& f = args.flag;
  if (f == "--seed") return args.number(c.seed);
  if (f == "--scenarios") return args.number(c.scenarios);
  if (f == "--threads") return args.number(c.threads);
  if (f == "--claim-k") {
    return args.number(c.oracle.claimed_tolerance) &&
           set(c.spec.max_processor_failures, c.oracle.claimed_tolerance);
  }
  if (f == "--iterations") return args.number(c.spec.max_iterations, 1);
  if (f == "--overbudget") return args.fraction(c.spec.over_budget_fraction);
  if (f == "--links") return set(c.spec.link_failure_probability, 0.25);
  if (f == "--silence") return set(c.spec.silence_probability, 0.25);
  if (f == "--suspects") return set(c.spec.suspect_probability, 0.25);
  if (f == "--shrink") return set(o.shrink, true);
  if (f == "--response-bound") return args.time(c.oracle.response_bound);
  // Chain constraints apply everywhere a verdict is formed: the replay /
  // shrink oracle, certification, repair screening and the service modes.
  if (f == "--latency") {
    return parse_latency(args.operand(), c.oracle.latency_constraints);
  }
  if (f == "--replay") return args.path(o.replay_file);
  if (f == "--certify") return set(o.certify, true);
  if (f == "--certify-links") {
    return set(o.certify, true) && args.number(o.certify_links);
  }
  if (f == "--certify-silences") {
    return set(o.certify, true) && args.number(o.certify_silences);
  }
  if (f == "--certify-out") return args.path(o.certify_out);
  if (f == "--repair") return set(o.repair, true);
  if (f == "--repair-rounds") {
    return set(o.repair, true) && args.number(o.repair_rounds);
  }
  if (f == "--repair-out") {
    return set(o.repair, true) && args.path(o.repair_out);
  }
  if (f == "--frontier") return set(o.frontier, true);
  if (f == "--frontier-k") {
    return set(o.frontier, true) && args.number(frontier.max_failures);
  }
  if (f == "--frontier-links") {
    return set(o.frontier, true) && args.number(frontier.max_link_failures);
  }
  if (f == "--frontier-silences") {
    return set(o.frontier, true) && args.number(frontier.max_silences);
  }
  if (f == "--frontier-out") {
    return set(o.frontier, true) && args.path(o.frontier_out);
  }
  if (f == "--plan-key") return set(o.plan_key, true);
  if (f == "--certify-shard") {
    return set(o.shard, true) && args.shard(o.shard_spec);
  }
  if (f == "--stream-out") return args.path(o.stream_out);
  if (f == "--merge-stream") {
    return args.path(o.merge_streams.emplace_back());
  }
  if (f == "--serve") return set(o.serve, true);
  if (f == "--serve-socket") {
    return set(o.serve, true) && args.path(o.serve_socket);
  }
  if (f == "--cache-size") {
    return args.number(o.serve_options.cache_capacity);
  }
  if (f == "--serve-threads") {
    return args.number(o.serve_options.serve_threads, 1);
  }
  if (f == "--metrics-out") return args.path(o.metrics_out);
  if (f == "--trace-out") return args.path(o.trace_out);
  return false;
}

/// argv -> Options; false on a usage error.
bool parse(int argc, char** argv, Options& o) {
  for (Args args(argc, argv); args.i < argc; ++args.i) {
    args.flag = argv[args.i];
    if (!o.problem.parse(args.flag) && !parse_flag(args, o)) return false;
  }
  return true;
}

/// The first mode the flags ask for, in today's precedence: --repair wins
/// over the --certify that --certify-links implies.
Mode select_mode(const Options& o) {
  if (o.serve) return Mode::kServe;
  if (o.plan_key) return Mode::kPlanKey;
  if (o.shard) return Mode::kShard;
  if (!o.merge_streams.empty()) return Mode::kMerge;
  if (o.frontier) return Mode::kFrontier;
  if (!o.replay_file.empty()) return Mode::kReplay;
  if (o.repair) return Mode::kRepair;
  if (o.certify) return Mode::kCertify;
  return Mode::kCampaign;
}

/// Every mode honours --trace-out; any other output flag the mode does not
/// write is refused instead of silently ignored.
bool outputs_written(const Options& o, Mode mode) {
  const bool certificate = mode == Mode::kCertify || mode == Mode::kMerge;
  const bool metrics =
      certificate || mode == Mode::kRepair || mode == Mode::kCampaign;
  const struct {
    const char* flag;
    const std::string& path;
    bool written;
  } outputs[] = {
      {"--certify-out", o.certify_out, certificate},
      {"--repair-out", o.repair_out, mode == Mode::kRepair},
      {"--frontier-out", o.frontier_out, mode == Mode::kFrontier},
      {"--stream-out", o.stream_out, mode == Mode::kShard},
      {"--metrics-out", o.metrics_out, metrics},
  };
  for (const auto& out : outputs) {
    if (!out.path.empty() && !out.written) {
      std::fprintf(stderr, "campaign_tool: %s is not written in %s mode\n",
                   out.flag, kModeNames[static_cast<int>(mode)]);
      return false;
    }
  }
  return true;
}

/// The certification budgets plan-key, shard, merge, repair and certify
/// share, so --plan-key prints exactly the key a certifyd submission with
/// these flags would look up.
campaign::CertifySpec certify_spec(const Options& o) {
  campaign::CertifySpec spec;
  spec.max_failures = o.campaign.oracle.claimed_tolerance;
  spec.max_link_failures = o.certify_links;
  spec.max_silences = o.certify_silences;
  spec.response_bound = o.campaign.oracle.response_bound;
  spec.latency_constraints = o.campaign.oracle.latency_constraints;
  spec.threads = o.campaign.threads;
  return spec;
}

/// Writes an output file the user may not have asked for: true when
/// `path` is empty or the write succeeded.
bool write_optional(const std::string& path, const std::string& content) {
  return path.empty() || io::write_file(path, content);
}

bool write_metrics(const Options& o, const obs::MetricsSnapshot& metrics) {
  return write_optional(o.metrics_out, metrics.to_json());
}

/// Prints a certify or merge report and writes its --certify-out and
/// --metrics-out files, so both modes emit the same bytes.
bool print_certificate(const Options& o, const campaign::CertifyReport& report,
                       const ArchitectureGraph& arch) {
  std::fputs(report.to_text(arch).c_str(), stdout);
  return write_optional(o.certify_out, report.to_json(arch)) &&
         write_metrics(o, report.metrics);
}

void print_reproducer(const char* title, const MissionPlan& plan,
                      const ArchitectureGraph& arch) {
  std::printf("\n# %s (%zu events)\n%s", title, plan.event_count(),
              io::write_scenario(plan, arch).c_str());
}

/// Shrinks a plan the oracle rejects to a minimal reproducer and prints it
/// with the violations it still shows.
void shrink_and_print(const Schedule& sched, const campaign::OracleSpec& spec,
                      const MissionPlan& plan) {
  const Simulator simulator(sched);
  const campaign::Oracle oracle(sched, spec);
  const campaign::ShrinkResult shrunk =
      campaign::shrink(simulator, oracle, plan);
  std::printf(
      "\n# shrunk reproducer (%zu -> %zu events, %zu re-simulations)\n%s",
      shrunk.initial_events, shrunk.final_events, shrunk.simulations,
      io::write_scenario(shrunk.plan, *sched.problem().architecture).c_str());
  for (const std::string& violation : shrunk.violations) {
    std::printf("# still fails: %s\n", violation.c_str());
  }
}

/// SIGINT sets the flag; certifyd drains the in-flight request and exits.
/// Installed WITHOUT SA_RESTART so blocking reads return EINTR and the
/// serve loops re-check the flag.
std::atomic<bool> g_stop{false};

extern "C" void handle_sigint(int) { g_stop.store(true); }

int run_serve(const Options& o) {
  service::ServeOptions serve_options = o.serve_options;
  serve_options.threads = o.campaign.threads;
  serve_options.stop = &g_stop;
  struct sigaction action {};
  action.sa_handler = handle_sigint;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGINT, &action, nullptr);
  if (!o.serve_socket.empty()) {
    return service::serve_socket(o.serve_socket, serve_options);
  }
  return service::serve_lines(std::cin, std::cout, serve_options);
}

int run_plan_key(const Options& o, const Schedule& sched) {
  // Bare key on stdout: scripts compare two problems' cache identity.
  std::printf("%s\n",
              service::plan_key_string(sched, certify_spec(o)).c_str());
  return 0;
}

int run_shard(const Options& o, const Schedule& sched) {
  std::ofstream file;
  if (!o.stream_out.empty()) file.open(o.stream_out);
  if (!o.stream_out.empty() && !file) {
    std::fprintf(stderr, "cannot write %s\n", o.stream_out.c_str());
    return 2;
  }
  service::OstreamSink sink(o.stream_out.empty() ? std::cout : file);
  const service::StreamShardResult result =
      service::certify_stream(sched, certify_spec(o), o.shard_spec, sink);
  std::fprintf(stderr, "shard %zu/%zu: %zu tasks streamed\n",
               o.shard_spec.shard_index, o.shard_spec.shard_count,
               result.tasks_emitted);
  // A disk-full or I/O error shows only in the stream state; without this
  // check a truncated stream would be reported as a finished shard.
  if (!o.stream_out.empty() && !file.flush().good()) {
    std::fprintf(stderr, "cannot write %s\n", o.stream_out.c_str());
    return 2;
  }
  return result.completed ? 0 : 1;
}

int run_merge(const Options& o, const Schedule& sched) {
  std::vector<std::string> streams;
  for (const std::string& path : o.merge_streams) {
    Expected<std::string> text = io::read_file(path);
    if (!text) return io::input_error(kTool, path, text.error().message);
    streams.push_back(std::move(text).value());
  }
  const Expected<campaign::CertifyReport> merged =
      service::merge_streams(sched, certify_spec(o), streams);
  if (!merged) {
    return io::input_error(kTool, o.merge_streams.front(),
                           merged.error().message);
  }
  if (!print_certificate(o, *merged, *sched.problem().architecture)) return 2;
  return merged->certified ? 0 : 1;
}

int run_frontier(const Options& o, const Schedule& sched) {
  campaign::FrontierSpec spec = o.frontier_spec;
  spec.response_bound = o.campaign.oracle.response_bound;
  spec.latency_constraints = o.campaign.oracle.latency_constraints;
  spec.threads = o.campaign.threads;
  const campaign::FrontierReport report =
      campaign::frontier_sweep(sched, spec);
  const ArchitectureGraph& arch = *sched.problem().architecture;
  std::fputs(report.to_text(arch).c_str(), stdout);
  if (!write_optional(o.frontier_out, report.to_json(arch))) return 2;
  // The frontier is a capability map, not a pass/fail gate; the exit code
  // reports only whether the fault-free baseline (0, 0, 0) holds.
  return !report.points.empty() && report.points.front().certified ? 0 : 1;
}

int run_replay(const Options& o, const Schedule& sched) {
  const ArchitectureGraph& arch = *sched.problem().architecture;
  const Expected<std::string> text = io::read_file(o.replay_file);
  if (!text) {
    return io::input_error(kTool, o.replay_file, text.error().message);
  }
  const Expected<MissionPlan> plan = io::read_scenario(*text, arch);
  if (!plan) {
    return io::input_error(kTool, o.replay_file, plan.error().message);
  }
  const campaign::Oracle oracle(sched, o.campaign.oracle);
  const MissionResult mission = run_mission(sched, *plan);
  std::fputs(mission.to_text(arch).c_str(), stdout);
  const campaign::Verdict verdict = oracle.judge(*plan, mission);
  if (verdict.ok()) {
    std::printf("replay: oracle satisfied (within contract: %s)\n",
                verdict.within_contract ? "yes" : "no");
    return 0;
  }
  for (const std::string& violation : verdict.violations) {
    std::printf("replay violation: %s\n", violation.c_str());
  }
  return 1;
}

int run_repair(const Options& o, const Schedule& sched) {
  campaign::RepairSpec spec;
  spec.certify = certify_spec(o);
  spec.max_rounds = o.repair_rounds;
  const campaign::RepairReport report =
      campaign::repair(sched.problem(), o.problem.kind, spec);
  const AlgorithmGraph& graph = *sched.problem().algorithm;
  const ArchitectureGraph& arch = *sched.problem().architecture;
  std::fputs(report.to_text(graph, arch).c_str(), stdout);
  if (!write_optional(o.repair_out, report.to_json(graph, arch)) ||
      !write_metrics(o, report.metrics)) {
    return 2;
  }
  if (report.certified) return 0;
  if (!report.rounds.empty() && !report.rounds.back().certified) {
    print_reproducer("final counterexample",
                     report.rounds.back().counterexample, arch);
  }
  return 1;
}

int run_certify(const Options& o, const Schedule& sched) {
  const campaign::CertifyReport report =
      campaign::certify(sched, certify_spec(o));
  const ArchitectureGraph& arch = *sched.problem().architecture;
  if (!print_certificate(o, report, arch)) return 2;
  if (report.certified) return 0;

  // Shrink the first counterexample to a minimal serialized reproducer
  // (the certifier's branches are already canonical, but the shrinker
  // often drops dead-at-start processors that were not load-bearing).
  const MissionPlan plan =
      campaign::counterexample_plan(report.counterexamples.front());
  print_reproducer("counterexample reproducer", plan, arch);
  // The shrink oracle must judge link faults within the certified budget
  // as within-contract, or a link counterexample would satisfy it and the
  // shrinker's precondition (oracle rejects the plan) would fail.
  campaign::OracleSpec oracle = o.campaign.oracle;
  oracle.claimed_link_tolerance = o.certify_links;
  shrink_and_print(sched, oracle, plan);
  return 1;
}

int run_campaign(const Options& o, const Schedule& sched) {
  const campaign::CampaignReport report =
      campaign::run_campaign(sched, o.campaign);
  const ArchitectureGraph& arch = *sched.problem().architecture;
  std::fputs(report.to_text(arch).c_str(), stdout);
  if (!write_metrics(o, report.metrics)) return 2;
  if (report.violations.empty()) return 0;

  const campaign::CampaignViolation& first = report.violations.front();
  std::printf("\nfirst violation: scenario %zu (seed %llu)\n", first.index,
              static_cast<unsigned long long>(first.seed));
  for (const std::string& detail : first.details) {
    std::printf("  %s\n", detail.c_str());
  }
  if (first.plan.event_count() == 0) return 1;
  print_reproducer("original reproducer", first.plan, arch);
  if (o.shrink) shrink_and_print(sched, o.campaign.oracle, first.plan);
  return 1;
}

/// Schedules the problem and runs the selected mode on it.
int run_mode(const Options& o, Mode mode, const Problem& problem) {
  const Expected<Schedule> result = schedule(problem, o.problem.kind);
  if (!result) {
    io::report_scheduling_failure(result.error());
    return 2;
  }
  const Schedule& sched = *result;
  // Shard mode keeps stdout clean: with no --stream-out the NDJSON records
  // themselves go there; --plan-key prints the bare key.
  if (mode != Mode::kShard && mode != Mode::kPlanKey) {
    std::printf("schedule: %s, K=%d, makespan %s\n",
                to_string(sched.kind()).c_str(), sched.failures_tolerated(),
                time_to_string(sched.makespan()).c_str());
  }
  switch (mode) {
    case Mode::kPlanKey: return run_plan_key(o, sched);
    case Mode::kShard: return run_shard(o, sched);
    case Mode::kMerge: return run_merge(o, sched);
    case Mode::kFrontier: return run_frontier(o, sched);
    case Mode::kReplay: return run_replay(o, sched);
    case Mode::kRepair: return run_repair(o, sched);
    case Mode::kCertify: return run_certify(o, sched);
    case Mode::kServe:  // served by run() before any problem is loaded
    case Mode::kCampaign: break;
  }
  return run_campaign(o, sched);
}

/// Runs `body` with the profiler on when --trace-out is given and writes
/// the recorded spans as Chrome trace-event JSON afterwards.
template <typename Body>
int traced(const Options& o, Body body) {
  if (o.trace_out.empty()) return body();
  obs::Profiler::global().enable(true);
  const int status = body();
  obs::Profiler::global().enable(false);
  const std::string trace =
      obs::chrome_trace_from_spans(obs::Profiler::global().drain());
  return io::write_file(o.trace_out, trace) ? status : 2;
}

int run(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return usage();
  const Mode mode = select_mode(o);
  if (!outputs_written(o, mode)) return 2;
  if (mode == Mode::kServe) return traced(o, [&] { return run_serve(o); });
  if (!o.problem.given()) return usage();
  const Expected<workload::OwnedProblem> owned = o.problem.load();
  if (!owned) {
    return io::input_error(kTool, o.problem.file, owned.error().message);
  }
  return traced(o, [&] { return run_mode(o, mode, owned->problem); });
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return io::finish_stdout(kTool, run(argc, argv));
  } catch (const std::exception& error) {
    // Belt and braces: anything a malformed input drives the library to
    // throw still exits with the input-error code and a one-line reason.
    std::fprintf(stderr, "campaign_tool: %s\n", error.what());
    return 3;
  }
}
