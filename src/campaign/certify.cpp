#include "campaign/certify.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

#include "arch/architecture_graph.hpp"
#include "campaign/canonical.hpp"
#include "campaign/work_pool.hpp"
#include "core/error.hpp"
#include "core/time.hpp"
#include "obs/json_util.hpp"
#include "obs/span.hpp"
#include "sched/timeouts.hpp"
#include "sim/simulator.hpp"
#include "tuning/transient_analysis.hpp"

namespace ftsched::campaign {

namespace {

/// Static watch-chain deadlines: instants a continuously shifting arrival
/// can cross, flipping a receiver's timeout decision. Only the
/// timeout-driven schedules have any.
std::vector<Time> static_deadlines(const Schedule& schedule) {
  if (schedule.kind() != HeuristicKind::kSolution1 &&
      schedule.kind() != HeuristicKind::kHybrid) {
    return {};
  }
  const RoutingTable routing(*schedule.problem().architecture);
  const TimeoutTable timeouts(schedule, routing);
  std::vector<Time> out;
  for (const TimeoutChain& chain : timeouts.chains()) {
    for (const TimeoutEntry& entry : chain.entries) {
      out.push_back(entry.deadline);
    }
  }
  return out;
}

/// The single-iteration mission plan of a fault pattern, into `plan`
/// (reusing its lists' storage).
void fill_plan(const std::vector<ProcessorId>& dead,
               const std::vector<LinkId>& dead_links,
               const std::vector<FailureEvent>& crashes,
               const std::vector<LinkFailureEvent>& link_crashes,
               const std::vector<SilentWindow>& silences, MissionPlan& plan) {
  plan.iterations = 1;
  plan.dead_at_start = dead;
  plan.dead_links_at_start = dead_links;
  plan.failures.clear();
  for (const FailureEvent& crash : crashes) {
    plan.failures.push_back(MissionFailure{0, crash});
  }
  plan.link_failures.clear();
  for (const LinkFailureEvent& death : link_crashes) {
    plan.link_failures.push_back(MissionLinkFailure{0, death});
  }
  plan.silences.clear();
  for (const SilentWindow& window : silences) {
    plan.silences.push_back(MissionSilence{0, window});
  }
}

/// Fault classes, in canonical same-instant order.
enum : int { kClsCrash = 0, kClsLinkDeath = 1, kClsSilence = 2 };

/// A typed mid-run fault victim. The canonical same-instant order is the
/// key's lexicographic order — crashes, then link deaths, then silence
/// openings, each by ascending id — so every unordered same-instant fault
/// set is explored exactly once (same-instant injections commute: each
/// only queues its own victim's event / window before the instant's batch
/// is dispatched).
struct FaultKey {
  int cls = -1;
  int id = -1;

  [[nodiscard]] bool valid() const { return cls >= 0; }
  friend bool operator==(const FaultKey&, const FaultKey&) = default;
  friend bool operator<=(const FaultKey& a, const FaultKey& b) {
    return a.cls < b.cls || (a.cls == b.cls && a.id <= b.id);
  }
};

/// Remaining per-class fault budgets of a subtree.
struct Budgets {
  int crashes = 0;
  int links = 0;
  int silences = 0;

  [[nodiscard]] bool exhausted() const {
    return crashes <= 0 && links <= 0 && silences <= 0;
  }
};

/// One contiguous share of a task's first-fault instants (see
/// certify_shard): slice `index` of `count`. {0, 1} is the whole task.
struct Slice {
  std::size_t index = 0;
  std::size_t count = 1;
};

/// A victim's kept first-fault instants under one node (see
/// Explorer::explore_children).
struct VictimPlan {
  FaultKey key;
  std::vector<Time> instants;
  std::vector<Time> sends;  // silence victims only
};

/// Reused storage of one exploration depth: the node's branch (advanced
/// as its children's cursor), the traced copy of it run to the end whose
/// trace plans those children, that run's digest, and the planning
/// buffers. A level is filled and planned, then walked while deeper levels
/// are in use, so no two live nodes share a buffer.
struct Level {
  Simulator::Branch node;
  Simulator::Branch run;
  IterationSummary digest;
  std::vector<Time> candidates;
  std::vector<VictimPlan> victims;  // the first `planned` are live
  std::size_t planned = 0;
  std::vector<std::size_t> next;
  std::vector<Time> tos;
};

/// Everything an Explorer reuses: one Level per interior depth, the leaf
/// arena with its digest, the victim-act scratch of the planning step, and
/// the leaf-cache key buffers. certify_shard recycles these across slices,
/// so a sweep holds one per concurrently running slice and steady-state
/// exploration allocates nothing per node.
struct ExplorerScratch {
  std::vector<Level> levels;
  Simulator::Branch leaf;
  IterationSummary leaf_summary;
  std::vector<Time> acts;
  std::vector<Interval> windows;
  std::vector<std::pair<LinkId, Time>> open;
  MissionPlan key_plan;
  CanonicalScratch key_canon;
  std::string key_bytes;
  /// (pattern key, outcome) of every leaf this scratch's slices simulated
  /// with a cache attached; certify_shard publishes them once the sweep
  /// has drained.
  std::vector<std::pair<std::uint64_t, CertifyLeafOutcome>> fresh;
};

/// Depth-first exploration of one task's subtree; every instant the parent
/// prefix is forked, never replayed.
class Explorer {
 public:
  Explorer(const Simulator& simulator, const CertifySpec& spec,
           const std::vector<Time>& deadlines, std::size_t procs,
           std::size_t links, std::uint64_t schedule_key,
           const std::vector<LatencyProbe>& probes, ExplorerScratch& scratch,
           CertifyTaskPartial& out)
      : sim_(simulator),
        spec_(spec),
        deadlines_(deadlines),
        procs_(procs),
        links_(links),
        beyond_tail_(simulator.schedule().makespan() + 1),
        // The leaf cache stores the scalar leaf verdict only, so it is
        // gated off under chain constraints (see
        // CertifySpec::latency_constraints).
        cache_(probes.empty() ? spec.cache : nullptr),
        schedule_key_(schedule_key),
        probes_(probes),
        x_(scratch),
        out_(out) {
    out_.worst_chain_latency.assign(probes_.size(), 0);
  }

  /// Runs one task: the dead-at-start subsets' own leaf when `first` is
  /// invalid, otherwise `slice`'s share of the subtree of fault sequences
  /// starting with a fault of `first`'s class on `first`'s victim.
  void run(const std::vector<ProcessorId>& dead,
           const std::vector<LinkId>& dead_links, FaultKey first,
           Budgets budgets, Slice slice) {
    FTSCHED_SPAN("certify.task");
    dead_ = dead;
    dead_links_ = dead_links;
    crashes_.clear();
    link_crashes_.clear();
    silences_.clear();
    FailureScenario scenario;
    scenario.failed_at_start = dead;
    scenario.failed_links_at_start = dead_links;
    if (!first.valid()) {
      // The dead-at-start-only leaf: a leaf like any exhausted one,
      // simulated from scratch into the leaf arena.
      run_leaf([&] {
        ++out_.forks;
        sim_.run_summary(scenario, x_.leaf, x_.leaf_summary);
      });
      return;
    }
    // A node that has taken d faults is interior only while d is below the
    // total budget, so depths 0 .. total-1 need a level.
    const auto total = static_cast<std::size_t>(
        budgets.crashes + budgets.links + budgets.silences);
    if (x_.levels.size() < total) x_.levels.resize(total);
    // Every slice re-simulates the root leaf; slice 0 alone counts it.
    Level& root = x_.levels[0];
    sim_.begin(scenario, root.node);
    if (slice.index == 0) ++out_.forks;
    root.node.fork_into(root.run, /*with_trace=*/true);
    sim_.finish_summary(root.run, root.digest);
    explore_children(0, budgets, 0, FaultKey{}, first, slice);
  }

 private:
  [[nodiscard]] bool proc_alive(ProcessorId p) const {
    if (std::find(dead_.begin(), dead_.end(), p) != dead_.end()) {
      return false;
    }
    return std::none_of(crashes_.begin(), crashes_.end(),
                        [&](const FailureEvent& crash) {
                          return crash.processor == p;
                        });
  }

  [[nodiscard]] bool link_alive(LinkId l) const {
    if (std::find(dead_links_.begin(), dead_links_.end(), l) !=
        dead_links_.end()) {
      return false;
    }
    return std::none_of(link_crashes_.begin(), link_crashes_.end(),
                        [&](const LinkFailureEvent& death) {
                          return death.link == l;
                        });
  }

  /// Records one leaf verdict (simulated or cache-served) against the
  /// current fault pattern. `deferral` is the leaf run's measured
  /// silence_deferral — the tight response allowance its windows earned
  /// (0 when no window deferred a send); the same per-window bound the
  /// campaign oracle applies, always <= the historical longest-window
  /// allowance, so every verdict is at least as strict. `op_completions`
  /// is the leaf run's per-op completion table the chain constraints are
  /// judged from (unused — pass empty — when the spec carries none; the
  /// cache-served paths may do so because the cache is gated off under
  /// constraints).
  void record_leaf(bool lost, Time response, Time deferral,
                   const std::vector<Time>& op_completions) {
    ++out_.branches;
    const bool late =
        !is_infinite(spec_.response_bound) && !lost &&
        time_gt(response, spec_.response_bound + deferral);
    // Chain constraints are judged per dimension, like the scalar
    // envelope: a branch that lost outputs is already the worst verdict
    // (and its completion table describes a truncated run), so chains are
    // only consulted on output-complete leaves. A never-completed sink
    // reads as kInfinite latency — always a violation.
    chain_violated_.clear();
    if (!lost) {
      for (std::size_t i = 0; i < probes_.size(); ++i) {
        const Time latency = chain_latency(op_completions, probes_[i]);
        if (time_gt(latency,
                    spec_.latency_constraints[i].bound + deferral)) {
          chain_violated_.push_back(spec_.latency_constraints[i].name);
        } else {
          out_.worst_chain_latency[i] =
              std::max(out_.worst_chain_latency[i], latency);
        }
      }
    }
    const bool counterexample = lost || late || !chain_violated_.empty();
    if (!lost && !late) {
      // Late branches are counterexamples, not the certified envelope.
      out_.worst_response = std::max(out_.worst_response, response);
    }
    if (counterexample) ++out_.total_counterexamples;
    const bool detailed =
        counterexample &&
        out_.counterexamples.size() < spec_.max_counterexamples;
    if (!detailed && !spec_.collect_branches) return;
    CertifyBranch branch;
    branch.dead_at_start = dead_;
    branch.dead_links_at_start = dead_links_;
    branch.crashes = crashes_;
    branch.link_crashes = link_crashes_;
    branch.silences = silences_;
    branch.outputs_lost = lost;
    branch.response_time = response;
    branch.violated_constraints = chain_violated_;
    if (detailed) out_.counterexamples.push_back(branch);
    if (spec_.collect_branches) out_.collected.push_back(std::move(branch));
  }

  /// Records a simulated leaf run: an interior node's or the leaf arena's.
  void certify_leaf(const IterationSummary& leaf) {
    out_.events_simulated += leaf.events_executed;
    record_leaf(!leaf.all_outputs_produced, leaf.response_time,
                leaf.silence_deferral, leaf.op_completions);
  }

  /// plan_key of the CURRENT fault pattern (dead_/crashes_/... stacks) —
  /// the leaf-cache key half identifying what was injected; the other
  /// half is schedule_hash identifying what it was injected into. Built in
  /// the scratch's reused buffers, so it allocates nothing once they have
  /// grown.
  [[nodiscard]] std::uint64_t pattern_key() {
    fill_plan(dead_, dead_links_, crashes_, link_crashes_, silences_,
              x_.key_plan);
    canonical_fingerprint_into(x_.key_plan, x_.key_canon, x_.key_bytes);
    return fingerprint_hash(x_.key_bytes);
  }

  /// The one leaf path, for every budget-exhausted child and every
  /// dead-at-start-only task: nothing forks from a leaf, so it needs no
  /// trace and no state of its own. The leaf cache serves the CURRENT
  /// fault pattern when it can (no simulation); otherwise `load` runs the
  /// leaf trace-free in the reused arena x_.leaf — a fork_into of the
  /// paused parent plus the leaf's fault, or a from-scratch run — into
  /// x_.leaf_summary, whose verdict is recorded and queued in x_.fresh for
  /// the cache. Allocation-free once the arena has grown.
  template <typename Load>
  void run_leaf(const Load& load) {
    std::uint64_t key = 0;
    if (cache_ != nullptr) {
      key = pattern_key();
      if (const CertifyLeafOutcome* hit =
              cache_->lookup(schedule_key_, key)) {
        ++out_.leaves_reused;
        record_leaf(hit->outputs_lost, hit->response_time,
                    hit->silence_deferral, {});
        return;
      }
    }
    load();
    const IterationSummary& leaf = x_.leaf_summary;
    certify_leaf(leaf);
    if (cache_ != nullptr) {
      x_.fresh.emplace_back(
          key, CertifyLeafOutcome{!leaf.all_outputs_produced,
                                  leaf.response_time, leaf.silence_deferral});
    }
  }

  /// Externally visible action dates of one victim (x_.acts, sorted),
  /// plus the in-flight windows whose interior keeps a candidate
  /// (x_.windows: the fault instant there IS the link-release /
  /// frame-loss instant).
  ///
  /// A processor's acts: replica completions and the start/end of every
  /// hop it feeds; windows are the in-flight spans of those hops.
  void proc_acts(const Trace& leaf, ProcessorId victim) {
    x_.acts.clear();
    x_.windows.clear();
    x_.open.clear();
    for (const TraceEvent& event : leaf.events()) {
      if (event.proc != victim) continue;
      switch (event.kind) {
        case TraceEvent::Kind::kOpEnd:
          x_.acts.push_back(event.time);
          break;
        case TraceEvent::Kind::kTransferStart:
          x_.acts.push_back(event.time);
          x_.open.emplace_back(event.link, event.time);
          break;
        // A drop ends the hop as surely as a completion: the frame is gone
        // and the link idle. Leaving the window open would let stale
        // history (a send killed by an earlier fault) keep candidate
        // instants forever.
        case TraceEvent::Kind::kTransferEnd:
        case TraceEvent::Kind::kDrop: {
          x_.acts.push_back(event.time);
          const auto it = std::find_if(
              x_.open.rbegin(), x_.open.rend(),
              [&](const auto& o) { return o.first == event.link; });
          if (it != x_.open.rend()) {
            x_.windows.push_back(Interval{it->second, event.time});
            x_.open.erase(std::next(it).base());
          }
          break;
        }
        default:
          break;
      }
    }
    for (const auto& [link, start] : x_.open) {
      x_.windows.push_back(Interval{start, kInfinite});
    }
    std::sort(x_.acts.begin(), x_.acts.end());
  }

  /// A link's acts: every transfer start/end it carried. The in-flight
  /// windows are kept too, conservatively: a link dead mid-frame loses
  /// the frame at any interior instant, but keeping the interior samples
  /// costs little and never merges two behaviours unsoundly.
  void link_acts(const Trace& leaf, LinkId victim) {
    x_.acts.clear();
    x_.windows.clear();
    Time open = kInfinite;
    for (const TraceEvent& event : leaf.events()) {
      if (event.link != victim) continue;
      if (event.kind == TraceEvent::Kind::kTransferStart) {
        x_.acts.push_back(event.time);
        open = event.time;
      } else if (event.kind == TraceEvent::Kind::kTransferEnd ||
                 event.kind == TraceEvent::Kind::kDrop) {
        x_.acts.push_back(event.time);
        if (!is_infinite(open)) {
          x_.windows.push_back(Interval{open, event.time});
          open = kInfinite;
        }
      }
    }
    if (!is_infinite(open)) {
      x_.windows.push_back(Interval{open, kInfinite});
    }
    std::sort(x_.acts.begin(), x_.acts.end());
  }

  /// Sorted dates the victim starts feeding a hop, into `sends` — the only
  /// instants a silent window's edges can distinguish (is_silent is
  /// consulted at send start; a window opening inside an in-flight hop
  /// blocks nothing of it).
  static void send_starts(const Trace& leaf, ProcessorId victim,
                          std::vector<Time>& sends) {
    sends.clear();
    for (const TraceEvent& event : leaf.events()) {
      if (event.proc == victim &&
          event.kind == TraceEvent::Kind::kTransferStart) {
        sends.push_back(event.time);
      }
    }
    std::sort(sends.begin(), sends.end());
  }

  /// Candidate instants kept for a crash-like fault (processor crash or
  /// link death) whose acts proc_acts/link_acts just gathered, after the
  /// canonical same-instant filter and (when enabled) the
  /// exact-equivalence merge described in the header; into `kept`.
  void kept_crash_instants(const std::vector<Time>& candidates, Time t0,
                           FaultKey last, FaultKey self,
                           std::vector<Time>& kept) {
    kept.clear();
    for (const Time c : candidates) {
      // Canonical ordering: equal-instant fault pairs are explored once,
      // in ascending (class, id) order.
      if (last.valid() && time_eq(c, t0) && self <= last) continue;
      if (!spec_.dedup || kept.empty()) {
        kept.push_back(c);
        continue;
      }
      const Time k0 = kept.back();
      const auto lo =
          std::upper_bound(x_.acts.begin(), x_.acts.end(), k0 + kTimeEpsilon);
      const bool acted = lo != x_.acts.end() && time_le(*lo, c);
      const bool mid_transfer =
          !acted && std::any_of(x_.windows.begin(), x_.windows.end(),
                                [&](const Interval& w) {
                                  return time_lt(w.start, c) &&
                                         time_lt(c, w.end);
                                });
      if (acted || mid_transfer) {
        kept.push_back(c);
      } else {
        ++out_.instants_merged;
      }
    }
    out_.instants_kept += kept.size();
  }

  /// Opening-edge candidates kept for a silent window on one victim.
  /// Windows [k0, t) and [c, t) block the same sends iff the victim starts
  /// no send in [k0, c) — the opening edge is inclusive, so the half-open
  /// check differs from the crash merge's (k0, c]. Kept/merged pairs are
  /// accounted per (from, to) combination in silence_tos(). Into `kept`.
  void kept_silence_froms(const std::vector<Time>& sends,
                          const std::vector<Time>& candidates, Time t0,
                          FaultKey last, FaultKey self,
                          std::vector<Time>& kept) {
    kept.clear();
    for (const Time c : candidates) {
      if (last.valid() && time_eq(c, t0) && self <= last) continue;
      if (!spec_.dedup || kept.empty()) {
        kept.push_back(c);
        continue;
      }
      const Time k0 = kept.back();
      const auto lo =
          std::lower_bound(sends.begin(), sends.end(), k0 - kTimeEpsilon);
      if (lo != sends.end() && time_lt(*lo, c)) {
        kept.push_back(c);
      } else {
        ++out_.instants_merged;
      }
    }
  }

  /// Closing-edge candidates for a window opening at `from`: every
  /// representative instant beyond it plus one past-the-end date (silent
  /// for the rest of the iteration). With dedup on, a window that blocks
  /// none of the victim's sends is pruned — it is exactly the parent
  /// leaf. Every surviving `to` is kept: the closing edge is where
  /// blocked sends resume, so it shifts downstream behaviour continuously
  /// (the continuum caveat in the header). Into `kept`.
  void silence_tos(const std::vector<Time>& sends,
                   const std::vector<Time>& candidates, Time from,
                   Time beyond, std::vector<Time>& kept) {
    const auto first_blocked =
        std::lower_bound(sends.begin(), sends.end(), from - kTimeEpsilon);
    kept.clear();
    auto consider = [&](Time to) {
      const bool blocks =
          first_blocked != sends.end() && time_lt(*first_blocked, to);
      if (spec_.dedup && !blocks) {
        ++out_.instants_merged;
        return;
      }
      kept.push_back(to);
    };
    for (const Time to : candidates) {
      if (time_gt(to, from)) consider(to);
    }
    consider(beyond);
    out_.instants_kept += kept.size();
  }

  /// Executes one child subtree of the node at `depth`, whose branch
  /// `cursor` is paused at the child's fault instant. The caller has
  /// already pushed the child's fault onto its stack; `inject` applies it
  /// to a branch. Each child counts two fork points (its own branch, its
  /// leaf run) whatever is copied for them: a budget-exhausted child is a
  /// leaf (run_leaf, copied into the leaf arena); any other child is copied
  /// with its trace into the next level, finished in a traced copy there
  /// for the trace that plans its own children, and explored.
  template <typename Inject>
  void explore_child(const Simulator::Branch& cursor, const Inject& inject,
                     Budgets rest, Time c, FaultKey key, std::size_t depth) {
    if (rest.exhausted()) {
      run_leaf([&] {
        out_.forks += 2;
        cursor.fork_into(x_.leaf);
        inject(x_.leaf);
        sim_.finish_summary(x_.leaf, x_.leaf_summary);
      });
      return;
    }
    Level& child = x_.levels[depth + 1];
    out_.forks += 2;
    cursor.fork_into(child.node, /*with_trace=*/true);
    inject(child.node);
    child.node.fork_into(child.run, /*with_trace=*/true);
    sim_.finish_summary(child.run, child.digest);
    certify_leaf(child.digest);
    explore_children(depth + 1, rest, c, key, FaultKey{});
  }

  /// Explores every child of the node at `depth` whose fault comes after
  /// `last` in the canonical order, planned from the trace of the level's
  /// finished run and forked from the level's node, which is advanced as
  /// the children's cursor (it has no other use left). A task root passes
  /// its first victim as `only` and its slice: every slice plans the same
  /// kept first-fault instants, explores its own contiguous range of
  /// them, and leaves the root-level accounting (instants kept/merged, the
  /// cursor fork point) to slice 0.
  void explore_children(std::size_t depth, Budgets budgets, Time t0,
                        FaultKey last, FaultKey only, Slice slice = {}) {
    if (budgets.exhausted()) return;
    Level& level = x_.levels[depth];
    const Trace& leaf = level.run.trace();
    representative_instants(leaf, t0, deadlines_, level.candidates);
    const std::vector<Time>& candidates = level.candidates;
    if (candidates.empty()) return;
    const Time beyond = candidates.back() + beyond_tail_;

    std::vector<VictimPlan>& victims = level.victims;
    level.planned = 0;
    const std::size_t kept0 = out_.instants_kept;
    const std::size_t merged0 = out_.instants_merged;
    auto consider = [&](FaultKey key) {
      if (only.valid() && !(key == only)) return;
      if (level.planned == victims.size()) victims.emplace_back();
      VictimPlan& plan = victims[level.planned];
      plan.key = key;
      if (key.cls == kClsCrash) {
        proc_acts(leaf, ProcessorId{
                            static_cast<ProcessorId::underlying_type>(key.id)});
        kept_crash_instants(candidates, t0, last, key, plan.instants);
      } else if (key.cls == kClsLinkDeath) {
        link_acts(leaf, LinkId{static_cast<LinkId::underlying_type>(key.id)});
        kept_crash_instants(candidates, t0, last, key, plan.instants);
      } else {
        send_starts(leaf,
                    ProcessorId{
                        static_cast<ProcessorId::underlying_type>(key.id)},
                    plan.sends);
        kept_silence_froms(plan.sends, candidates, t0, last, key,
                           plan.instants);
      }
      if (!plan.instants.empty()) ++level.planned;
    };
    if (budgets.crashes > 0) {
      for (std::size_t p = 0; p < procs_; ++p) {
        const ProcessorId victim{
            static_cast<ProcessorId::underlying_type>(p)};
        if (!proc_alive(victim)) continue;
        consider(FaultKey{kClsCrash, static_cast<int>(p)});
      }
    }
    if (budgets.links > 0) {
      for (std::size_t l = 0; l < links_; ++l) {
        const LinkId victim{static_cast<LinkId::underlying_type>(l)};
        if (!link_alive(victim)) continue;
        consider(FaultKey{kClsLinkDeath, static_cast<int>(l)});
      }
    }
    if (budgets.silences > 0) {
      for (std::size_t p = 0; p < procs_; ++p) {
        const ProcessorId victim{
            static_cast<ProcessorId::underlying_type>(p)};
        if (!proc_alive(victim)) continue;
        consider(FaultKey{kClsSilence, static_cast<int>(p)});
      }
    }
    if (slice.index != 0) {
      out_.instants_kept = kept0;
      out_.instants_merged = merged0;
    }
    const std::size_t planned = level.planned;
    if (planned == 0) return;
    // One cursor per node: the shared prefix is executed once per instant,
    // each (victim, instant) branch forks it. The node is the cursor; the
    // fork point is still counted (see CertifyReport::forks).
    if (slice.index == 0) ++out_.forks;
    if (slice.count > 1) {
      // `only` leaves exactly one victim at a task root.
      std::vector<Time>& instants = victims.front().instants;
      const std::size_t n = instants.size();
      instants.erase(
          instants.begin() + static_cast<std::ptrdiff_t>(
                                 n * (slice.index + 1) / slice.count),
          instants.end());
      instants.erase(instants.begin(),
                     instants.begin() + static_cast<std::ptrdiff_t>(
                                            n * slice.index / slice.count));
      if (instants.empty()) return;
    }
    Simulator::Branch& cursor = level.node;
    std::vector<std::size_t>& next = level.next;
    next.assign(planned, 0);
    for (;;) {
      // Earliest un-dispatched instant across the victims.
      Time c = kInfinite;
      for (std::size_t v = 0; v < planned; ++v) {
        if (next[v] < victims[v].instants.size()) {
          c = std::min(c, victims[v].instants[next[v]]);
        }
      }
      if (is_infinite(c)) break;
      sim_.advance_until(cursor, c);
      for (std::size_t v = 0; v < planned; ++v) {
        if (next[v] >= victims[v].instants.size() ||
            victims[v].instants[next[v]] != c) {
          continue;
        }
        ++next[v];
        const FaultKey key = victims[v].key;
        if (key.cls == kClsCrash) {
          const ProcessorId victim{
              static_cast<ProcessorId::underlying_type>(key.id)};
          crashes_.push_back(FailureEvent{victim, c});
          Budgets rest = budgets;
          --rest.crashes;
          explore_child(
              cursor,
              [&](Simulator::Branch& child) {
                sim_.inject(child, FailureEvent{victim, c});
              },
              rest, c, key, depth);
          crashes_.pop_back();
        } else if (key.cls == kClsLinkDeath) {
          const LinkId victim{static_cast<LinkId::underlying_type>(key.id)};
          link_crashes_.push_back(LinkFailureEvent{victim, c});
          Budgets rest = budgets;
          --rest.links;
          explore_child(
              cursor,
              [&](Simulator::Branch& child) {
                sim_.inject(child, LinkFailureEvent{victim, c});
              },
              rest, c, key, depth);
          link_crashes_.pop_back();
        } else {
          const ProcessorId victim{
              static_cast<ProcessorId::underlying_type>(key.id)};
          Budgets rest = budgets;
          --rest.silences;
          silence_tos(victims[v].sends, candidates, c, beyond, level.tos);
          for (const Time to : level.tos) {
            silences_.push_back(SilentWindow{victim, c, to});
            explore_child(
                cursor,
                [&](Simulator::Branch& child) {
                  sim_.inject(child, SilentWindow{victim, c, to});
                },
                rest, c, key, depth);
            silences_.pop_back();
          }
        }
      }
    }
  }

  const Simulator& sim_;
  const CertifySpec& spec_;
  const std::vector<Time>& deadlines_;
  const std::size_t procs_;
  const std::size_t links_;
  const Time beyond_tail_;
  const CertifyCache* const cache_;
  const std::uint64_t schedule_key_;
  /// Resolved chain probes, spec order (empty = scalar-only sweep).
  const std::vector<LatencyProbe>& probes_;
  /// Scratch: names the current leaf violates (record_leaf only).
  std::vector<std::string> chain_violated_;
  ExplorerScratch& x_;
  CertifyTaskPartial& out_;
  std::vector<ProcessorId> dead_;
  std::vector<LinkId> dead_links_;
  std::vector<FailureEvent> crashes_;
  std::vector<LinkFailureEvent> link_crashes_;
  std::vector<SilentWindow> silences_;
};

/// Subsets of {0..count-1} with size 0..max, sizes ascending,
/// lexicographic within a size — the canonical task order.
std::vector<std::vector<int>> id_subsets(std::size_t count, int max) {
  std::vector<std::vector<int>> out;
  for (int size = 0; size <= max; ++size) {
    std::vector<int> combo;
    auto gen = [&](auto&& self, std::size_t from, int left) -> void {
      if (left == 0) {
        out.push_back(combo);
        return;
      }
      for (std::size_t p = from; p + static_cast<std::size_t>(left) <= count;
           ++p) {
        combo.push_back(static_cast<int>(p));
        self(self, p + 1, left - 1);
        combo.pop_back();
      }
    };
    gen(gen, 0, size);
  }
  return out;
}

std::vector<ProcessorId> to_proc_ids(const std::vector<int>& ids) {
  std::vector<ProcessorId> out;
  out.reserve(ids.size());
  for (const int id : ids) {
    out.push_back(ProcessorId{static_cast<ProcessorId::underlying_type>(id)});
  }
  return out;
}

std::vector<LinkId> to_link_ids(const std::vector<int>& ids) {
  std::vector<LinkId> out;
  out.reserve(ids.size());
  for (const int id : ids) {
    out.push_back(LinkId{static_cast<LinkId::underlying_type>(id)});
  }
  return out;
}

}  // namespace

MissionPlan counterexample_plan(const CertifyBranch& branch) {
  MissionPlan plan;
  fill_plan(branch.dead_at_start, branch.dead_links_at_start, branch.crashes,
            branch.link_crashes, branch.silences, plan);
  return plan;
}

namespace {

/// The fully resolved sweep: budgets clamped, subsets materialized, tasks
/// enumerated in the canonical global order every shard agrees on. A pure
/// function of (schedule, spec).
struct SweepPlan {
  int max_failures = 0;
  int max_links = 0;
  int max_silences = 0;
  std::vector<std::vector<ProcessorId>> subsets;
  std::vector<std::vector<LinkId>> link_subsets;
  struct Task {
    const std::vector<ProcessorId>* dead;
    const std::vector<LinkId>* dead_links;
    FaultKey first;  // invalid = leaf-only
    Budgets budgets;
  };
  std::vector<Task> tasks;
};

SweepPlan build_sweep_plan(const Schedule& schedule, const CertifySpec& spec) {
  const std::size_t procs =
      schedule.problem().architecture->processor_count();
  const std::size_t links = schedule.problem().architecture->link_count();
  SweepPlan plan;
  int max_failures = spec.max_failures < 0 ? schedule.failures_tolerated()
                                           : spec.max_failures;
  plan.max_failures = std::clamp(max_failures, 0,
                                 static_cast<int>(procs) - 1);
  plan.max_links =
      std::clamp(spec.max_link_failures, 0, static_cast<int>(links));
  plan.max_silences = std::max(spec.max_silences, 0);

  for (const std::vector<int>& ids : id_subsets(procs, plan.max_failures)) {
    plan.subsets.push_back(to_proc_ids(ids));
  }
  for (const std::vector<int>& ids : id_subsets(links, plan.max_links)) {
    plan.link_subsets.push_back(to_link_ids(ids));
  }

  // Tasks: each (processor subset, link subset) pair's own leaf, plus —
  // when some mid-run budget remains — one subtree per first fault victim
  // in canonical class order, splitting the dominant small-subset
  // subtrees across workers.
  for (const std::vector<ProcessorId>& dead : plan.subsets) {
    for (const std::vector<LinkId>& dead_links : plan.link_subsets) {
      Budgets budgets;
      budgets.crashes = plan.max_failures - static_cast<int>(dead.size());
      budgets.links = plan.max_links - static_cast<int>(dead_links.size());
      budgets.silences = plan.max_silences;
      plan.tasks.push_back(
          SweepPlan::Task{&dead, &dead_links, FaultKey{}, budgets});
      if (budgets.exhausted()) continue;
      auto add_first = [&](int cls, int id) {
        plan.tasks.push_back(
            SweepPlan::Task{&dead, &dead_links, FaultKey{cls, id}, budgets});
      };
      if (budgets.crashes > 0) {
        for (std::size_t p = 0; p < procs; ++p) {
          const ProcessorId victim{
              static_cast<ProcessorId::underlying_type>(p)};
          if (std::find(dead.begin(), dead.end(), victim) != dead.end()) {
            continue;
          }
          add_first(kClsCrash, static_cast<int>(p));
        }
      }
      if (budgets.links > 0) {
        for (std::size_t l = 0; l < links; ++l) {
          const LinkId victim{static_cast<LinkId::underlying_type>(l)};
          if (std::find(dead_links.begin(), dead_links.end(), victim) !=
              dead_links.end()) {
            continue;
          }
          add_first(kClsLinkDeath, static_cast<int>(l));
        }
      }
      if (budgets.silences > 0) {
        for (std::size_t p = 0; p < procs; ++p) {
          const ProcessorId victim{
              static_cast<ProcessorId::underlying_type>(p)};
          if (std::find(dead.begin(), dead.end(), victim) != dead.end()) {
            continue;
          }
          add_first(kClsSilence, static_cast<int>(p));
        }
      }
    }
  }
  return plan;
}

CertifySweep sweep_of(const SweepPlan& plan, const CertifySpec& spec) {
  CertifySweep sweep;
  sweep.max_failures = plan.max_failures;
  sweep.max_link_failures = plan.max_links;
  sweep.max_silences = plan.max_silences;
  sweep.response_bound = spec.response_bound;
  sweep.subsets = plan.subsets.size();
  sweep.link_subsets = plan.link_subsets.size();
  sweep.tasks = plan.tasks.size();
  return sweep;
}

/// Folds `from` into `into`, which precedes it in exploration order:
/// counts summed, worst values maxed, counterexample detail appended up
/// to `cap`, collected branches appended. A task's slices and a sweep's
/// tasks merge through this one function.
void fold_partial(CertifyTaskPartial& into, CertifyTaskPartial&& from,
                  std::size_t cap) {
  into.branches += from.branches;
  into.forks += from.forks;
  into.leaves_reused += from.leaves_reused;
  into.events_simulated += from.events_simulated;
  into.instants_kept += from.instants_kept;
  into.instants_merged += from.instants_merged;
  into.total_counterexamples += from.total_counterexamples;
  into.worst_response = std::max(into.worst_response, from.worst_response);
  for (std::size_t i = 0; i < into.worst_chain_latency.size() &&
                          i < from.worst_chain_latency.size();
       ++i) {
    into.worst_chain_latency[i] =
        std::max(into.worst_chain_latency[i], from.worst_chain_latency[i]);
  }
  for (CertifyBranch& cex : from.counterexamples) {
    if (into.counterexamples.size() >= cap) break;
    into.counterexamples.push_back(std::move(cex));
  }
  for (CertifyBranch& branch : from.collected) {
    into.collected.push_back(std::move(branch));
  }
}

/// Slices per first-victim task. A constant, so the certificate never
/// depends on it or on the thread count: slices only bound the critical
/// path, which one whole task would otherwise set (a third of a deep
/// sweep's work).
constexpr std::size_t kSlicesPerTask = 16;

/// Slices `task` is cut into. Every slice re-simulates the task's root
/// leaf, so a task whose first-fault instants each root a single leaf — a
/// crash or link death that exhausts the budgets — stays whole: slicing it
/// would add one leaf run per slice and shorten nothing worth the cost. A
/// silence opening fans out over its closing edges, so it is sliced.
std::size_t slice_count(const SweepPlan::Task& task) {
  if (!task.first.valid()) return 1;
  Budgets rest = task.budgets;
  if (task.first.cls == kClsCrash) --rest.crashes;
  if (task.first.cls == kClsLinkDeath) --rest.links;
  const bool single_leaf = rest.exhausted() && task.first.cls != kClsSilence;
  return single_leaf ? 1 : kSlicesPerTask;
}

}  // namespace

CertifySweep certify_sweep(const Schedule& schedule,
                           const CertifySpec& spec) {
  return sweep_of(build_sweep_plan(schedule, spec), spec);
}

CertifyMerger::CertifyMerger(const CertifySweep& sweep,
                             const CertifySpec& spec)
    : max_counterexamples_(spec.max_counterexamples) {
  report_.latency_constraints = spec.latency_constraints;
  report_.max_failures = sweep.max_failures;
  report_.max_link_failures = sweep.max_link_failures;
  report_.max_silences = sweep.max_silences;
  report_.response_bound = sweep.response_bound;
  report_.subsets = sweep.subsets;
  report_.link_subsets = sweep.link_subsets;
  total_.worst_chain_latency.assign(spec.latency_constraints.size(), 0);
}

void CertifyMerger::add(CertifyTaskPartial&& partial) {
  FTSCHED_REQUIRE(!any_added_ || partial.task_index > last_index_,
                  "CertifyMerger::add requires ascending task indices");
  any_added_ = true;
  last_index_ = partial.task_index;
  fold_partial(total_, std::move(partial), max_counterexamples_);
}

CertifyReport CertifyMerger::finish() {
  report_.branches = total_.branches;
  report_.forks = total_.forks;
  report_.leaves_reused = total_.leaves_reused;
  report_.events_simulated = total_.events_simulated;
  report_.instants_kept = total_.instants_kept;
  report_.instants_merged = total_.instants_merged;
  report_.total_counterexamples = total_.total_counterexamples;
  report_.worst_response = total_.worst_response;
  report_.worst_chain_latency = std::move(total_.worst_chain_latency);
  report_.counterexamples = std::move(total_.counterexamples);
  report_.branches_list = std::move(total_.collected);
  report_.certified = report_.total_counterexamples == 0;
  report_.leaves_fresh = report_.branches - report_.leaves_reused;
  report_.metrics.add_counter("certify.subsets", report_.subsets);
  report_.metrics.add_counter("certify.link_subsets", report_.link_subsets);
  report_.metrics.add_counter("certify.branches", report_.branches);
  report_.metrics.add_counter("certify.forks", report_.forks);
  report_.metrics.add_counter("certify.leaves_reused",
                              report_.leaves_reused);
  report_.metrics.add_counter("certify.leaves_fresh", report_.leaves_fresh);
  report_.metrics.add_counter("certify.events_simulated",
                              report_.events_simulated);
  report_.metrics.add_counter("certify.instants_kept",
                              report_.instants_kept);
  report_.metrics.add_counter("certify.instants_merged",
                              report_.instants_merged);
  report_.metrics.add_counter("certify.counterexamples",
                              report_.total_counterexamples);
  if (!report_.latency_constraints.empty()) {
    // Scalar sweeps keep their historical metric set byte for byte; the
    // counter exists only when the spec carries chain constraints.
    report_.metrics.add_counter("certify.latency_constraints",
                                report_.latency_constraints.size());
  }
  return std::move(report_);
}

bool certify_shard(const Schedule& schedule, const CertifySpec& spec,
                   const CertifyShardSpec& shard,
                   const std::function<void(CertifyTaskPartial&&)>& emit,
                   const std::function<bool()>& cancelled) {
  FTSCHED_SPAN("certify.shard");
  FTSCHED_REQUIRE(shard.shard_count >= 1 &&
                      shard.shard_index < shard.shard_count,
                  "certify_shard: shard_index must be < shard_count");
  const SweepPlan plan = build_sweep_plan(schedule, spec);
  const std::size_t procs =
      schedule.problem().architecture->processor_count();
  const std::size_t links = schedule.problem().architecture->link_count();
  const Simulator simulator(schedule);
  const std::vector<Time> deadlines = static_deadlines(schedule);
  const std::uint64_t schedule_key =
      spec.cache != nullptr ? schedule_hash(schedule) : 0;
  // Validates the spec's chain constraints (throws std::invalid_argument
  // on a malformed one) and resolves them to op-index probes once for the
  // whole shard.
  const std::vector<LatencyProbe> probes =
      resolve_latency_constraints(schedule, spec.latency_constraints);

  std::vector<std::size_t> owned;
  for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
    if (shard.owns(t)) owned.push_back(t);
  }

  // Every owned task runs as slice_count() slices on the pool.
  // Slices finish out of order; each lands in its task's row, and a task
  // whose row is complete is folded in slice order and flushed to `emit`
  // in ascending task order, so the consumer sees exactly the sequential
  // stream. Slices share no state, so the fold is exact.
  std::vector<std::vector<CertifyTaskPartial>> rows(owned.size());
  for (std::size_t pos = 0; pos < owned.size(); ++pos) {
    rows[pos].resize(slice_count(plan.tasks[owned[pos]]));
  }
  std::vector<std::size_t> finished(owned.size(), 0);
  std::mutex emit_mutex;
  std::size_t next_pos = 0;
  bool was_cancelled = false;
  // Explorer scratch, recycled across slices: a slice takes a spare one
  // (or makes one) and hands it back, so there is one per concurrently
  // running slice and each keeps the storage it has grown.
  std::vector<std::unique_ptr<ExplorerScratch>> spare_scratch;
  auto run_slice = [&](std::size_t pos, Slice slice) {
    std::unique_ptr<ExplorerScratch> scratch;
    {
      const std::lock_guard<std::mutex> lock(emit_mutex);
      if (was_cancelled) return;
      if (cancelled && cancelled()) {
        was_cancelled = true;
        return;
      }
      if (!spare_scratch.empty()) {
        scratch = std::move(spare_scratch.back());
        spare_scratch.pop_back();
      }
    }
    if (!scratch) scratch = std::make_unique<ExplorerScratch>();
    const SweepPlan::Task& task = plan.tasks[owned[pos]];
    CertifyTaskPartial partial;
    partial.task_index = owned[pos];
    Explorer explorer(simulator, spec, deadlines, procs, links, schedule_key,
                      probes, *scratch, partial);
    explorer.run(*task.dead, *task.dead_links, task.first, task.budgets,
                 slice);
    const std::lock_guard<std::mutex> lock(emit_mutex);
    spare_scratch.push_back(std::move(scratch));
    rows[pos][slice.index] = std::move(partial);
    ++finished[pos];
    while (next_pos < owned.size() &&
           finished[next_pos] == rows[next_pos].size()) {
      std::vector<CertifyTaskPartial> row = std::move(rows[next_pos]);
      for (std::size_t s = 1; s < row.size(); ++s) {
        fold_partial(row.front(), std::move(row[s]),
                     spec.max_counterexamples);
      }
      emit(std::move(row.front()));
      ++next_pos;
    }
  };
  WorkPool pool(spec.threads);
  // Each worker pops its own deque from the back, so dealing the slices
  // in reverse starts the sweep at its head, where the first-fault
  // subtrees are largest.
  for (std::size_t pos = owned.size(); pos-- > 0;) {
    const std::size_t count = rows[pos].size();
    for (std::size_t s = count; s-- > 0;) {
      pool.submit([&run_slice, pos, s, count] {
        run_slice(pos, Slice{s, count});
      });
    }
  }
  pool.wait();
  // The cache stayed frozen while the slices ran; every scratch is back in
  // the spare list now, so publish their fresh leaves in one pass.
  if (spec.cache != nullptr) {
    std::size_t entries = spec.cache->size();
    for (const auto& scratch : spare_scratch) entries += scratch->fresh.size();
    spec.cache->reserve(entries);
    for (const auto& scratch : spare_scratch) {
      for (const auto& [key, outcome] : scratch->fresh) {
        spec.cache->insert(schedule_key, key, outcome);
      }
    }
  }
  return !was_cancelled;
}

CertifyReport certify(const Schedule& schedule, const CertifySpec& spec) {
  FTSCHED_SPAN("certify.run");
  const auto wall_start = std::chrono::steady_clock::now();

  CertifyMerger merger(certify_sweep(schedule, spec), spec);
  certify_shard(schedule, spec, CertifyShardSpec{},
                [&](CertifyTaskPartial&& partial) {
                  merger.add(std::move(partial));
                });
  CertifyReport report = merger.finish();
  report.threads_used = resolve_threads(spec.threads);
  report.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return report;
}

namespace {

std::string branch_text(const CertifyBranch& branch,
                        const ArchitectureGraph& arch) {
  std::string out;
  out += "dead at start: ";
  if (branch.dead_at_start.empty() && branch.dead_links_at_start.empty()) {
    out += "-";
  }
  for (std::size_t i = 0; i < branch.dead_at_start.size(); ++i) {
    if (i > 0) out += ",";
    out += arch.processor(branch.dead_at_start[i]).name;
  }
  for (std::size_t i = 0; i < branch.dead_links_at_start.size(); ++i) {
    if (i > 0 || !branch.dead_at_start.empty()) out += ",";
    out += arch.link(branch.dead_links_at_start[i]).name;
  }
  out += "; crashes: ";
  if (branch.crashes.empty() && branch.link_crashes.empty()) out += "-";
  for (std::size_t i = 0; i < branch.crashes.size(); ++i) {
    if (i > 0) out += ", ";
    out += arch.processor(branch.crashes[i].processor).name;
    out += "@";
    out += time_to_string(branch.crashes[i].time);
  }
  for (std::size_t i = 0; i < branch.link_crashes.size(); ++i) {
    if (i > 0 || !branch.crashes.empty()) out += ", ";
    out += arch.link(branch.link_crashes[i].link).name;
    out += "@";
    out += time_to_string(branch.link_crashes[i].time);
  }
  if (!branch.silences.empty()) {
    out += "; silent: ";
    for (std::size_t i = 0; i < branch.silences.size(); ++i) {
      if (i > 0) out += ", ";
      out += arch.processor(branch.silences[i].processor).name;
      out += "@[";
      out += time_to_string(branch.silences[i].from);
      out += ",";
      out += time_to_string(branch.silences[i].to);
      out += ")";
    }
  }
  out += branch.outputs_lost
             ? "; OUTPUTS LOST"
             : "; response " + time_to_string(branch.response_time);
  for (std::size_t i = 0; i < branch.violated_constraints.size(); ++i) {
    out += i == 0 ? "; violates chain " : ", ";
    out += "\"" + branch.violated_constraints[i] + "\"";
  }
  return out;
}

std::string branch_json(const CertifyBranch& branch,
                        const ArchitectureGraph& arch) {
  std::string out = "{\"dead_at_start\": [";
  for (std::size_t i = 0; i < branch.dead_at_start.size(); ++i) {
    if (i > 0) out += ", ";
    out += obs::json_string(arch.processor(branch.dead_at_start[i]).name);
  }
  out += "], \"dead_links_at_start\": [";
  for (std::size_t i = 0; i < branch.dead_links_at_start.size(); ++i) {
    if (i > 0) out += ", ";
    out += obs::json_string(arch.link(branch.dead_links_at_start[i]).name);
  }
  out += "], \"crashes\": [";
  for (std::size_t i = 0; i < branch.crashes.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"processor\": " +
           obs::json_string(arch.processor(branch.crashes[i].processor).name) +
           ", \"time\": " + obs::json_number(branch.crashes[i].time) + "}";
  }
  out += "], \"link_crashes\": [";
  for (std::size_t i = 0; i < branch.link_crashes.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"link\": " +
           obs::json_string(arch.link(branch.link_crashes[i].link).name) +
           ", \"time\": " + obs::json_number(branch.link_crashes[i].time) +
           "}";
  }
  out += "], \"silences\": [";
  for (std::size_t i = 0; i < branch.silences.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"processor\": " +
           obs::json_string(arch.processor(branch.silences[i].processor).name) +
           ", \"from\": " + obs::json_number(branch.silences[i].from) +
           ", \"to\": " + obs::json_number(branch.silences[i].to) + "}";
  }
  out += "], \"outputs_lost\": ";
  out += branch.outputs_lost ? "true" : "false";
  out += ", \"response\": " + obs::json_number(branch.response_time);
  // Emitted only when non-empty: scalar certificates stay byte-identical.
  if (!branch.violated_constraints.empty()) {
    out += ", \"violated_constraints\": [";
    for (std::size_t i = 0; i < branch.violated_constraints.size(); ++i) {
      if (i > 0) out += ", ";
      out += obs::json_string(branch.violated_constraints[i]);
    }
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace

std::string certify_branch_json(const CertifyBranch& branch,
                                const ArchitectureGraph& arch) {
  return branch_json(branch, arch);
}

std::string CertifyReport::to_text(const ArchitectureGraph& arch) const {
  std::string out;
  out += "certify:  K=" + std::to_string(max_failures) + " over " +
         std::to_string(arch.processor_count()) + " processors, " +
         std::to_string(subsets) + " dead-at-start subsets";
  if (max_link_failures > 0) {
    out += "; L=" + std::to_string(max_link_failures) + " over " +
           std::to_string(arch.link_count()) + " links, " +
           std::to_string(link_subsets) + " link subsets";
  }
  if (max_silences > 0) {
    out += "; S=" + std::to_string(max_silences) + " silent windows";
  }
  out += "\n";
  out += "branches: " + std::to_string(branches) + " certified branches, " +
         std::to_string(forks) + " forks, " +
         std::to_string(instants_kept) + " instants kept / " +
         std::to_string(instants_merged) + " merged as equivalent\n";
  out += "verdict:  ";
  out += certified
             ? "CERTIFIED — every branch served all outputs"
             : std::to_string(total_counterexamples) + " COUNTEREXAMPLES";
  out += "\n";
  out += "response: worst " + time_to_string(worst_response);
  if (!is_infinite(response_bound)) {
    out += " (bound " + time_to_string(response_bound) + ")";
  }
  out += "\n";
  for (std::size_t i = 0; i < latency_constraints.size(); ++i) {
    const LatencyConstraint& c = latency_constraints[i];
    out += "chain:    \"" + c.name + "\" (" + c.source_op + " -> " +
           c.sink_op + ") worst " +
           time_to_string(i < worst_chain_latency.size()
                              ? worst_chain_latency[i]
                              : 0) +
           " (bound " + time_to_string(c.bound) + ")\n";
  }
  char rate[64];
  std::snprintf(rate, sizeof rate, "%.0f branches/s on %u thread%s\n",
                branches_per_second(), threads_used,
                threads_used == 1 ? "" : "s");
  out += "rate:     ";
  out += rate;
  for (const CertifyBranch& cex : counterexamples) {
    out += "  counterexample: " + branch_text(cex, arch) + "\n";
  }
  return out;
}

std::string CertifyReport::to_json(const ArchitectureGraph& arch) const {
  // Deliberately excludes wall-clock and thread-count fields: the
  // certificate is a pure function of (schedule, spec) and diffable.
  std::string out = "{\n";
  out += "  \"certified\": ";
  out += certified ? "true" : "false";
  // A sweep whose resolved budgets allow no fault at all certifies only
  // the fault-free run; the marker keeps such a certificate from passing
  // as an exhaustive one downstream.
  out += ",\n  \"sweep\": ";
  out += (max_failures == 0 && max_link_failures == 0 && max_silences == 0)
             ? "\"empty\""
             : "\"exhaustive\"";
  out += ",\n  \"max_failures\": " +
         obs::json_number(static_cast<std::int64_t>(max_failures));
  out += ",\n  \"max_link_failures\": " +
         obs::json_number(static_cast<std::int64_t>(max_link_failures));
  out += ",\n  \"max_silences\": " +
         obs::json_number(static_cast<std::int64_t>(max_silences));
  out += ",\n  \"processors\": " + obs::json_number(static_cast<std::uint64_t>(
                                       arch.processor_count()));
  out += ",\n  \"links\": " +
         obs::json_number(static_cast<std::uint64_t>(arch.link_count()));
  out += ",\n  \"subsets\": " +
         obs::json_number(static_cast<std::uint64_t>(subsets));
  out += ",\n  \"link_subsets\": " +
         obs::json_number(static_cast<std::uint64_t>(link_subsets));
  out += ",\n  \"branches\": " +
         obs::json_number(static_cast<std::uint64_t>(branches));
  out += ",\n  \"forks\": " +
         obs::json_number(static_cast<std::uint64_t>(forks));
  out += ",\n  \"instants_kept\": " +
         obs::json_number(static_cast<std::uint64_t>(instants_kept));
  out += ",\n  \"instants_merged\": " +
         obs::json_number(static_cast<std::uint64_t>(instants_merged));
  out += ",\n  \"worst_response\": " + obs::json_number(worst_response);
  out += ",\n  \"response_bound\": " + obs::json_number(response_bound);
  // Scalar certificates must stay byte-identical, so the chain block only
  // exists when the spec carried constraints.
  if (!latency_constraints.empty()) {
    out += ",\n  \"latency_constraints\": [";
    for (std::size_t i = 0; i < latency_constraints.size(); ++i) {
      const LatencyConstraint& c = latency_constraints[i];
      out += i > 0 ? ",\n    " : "\n    ";
      out += "{\"name\": " + obs::json_string(c.name) +
             ", \"source\": " + obs::json_string(c.source_op) +
             ", \"sink\": " + obs::json_string(c.sink_op) +
             ", \"bound\": " + obs::json_number(c.bound) +
             ", \"worst\": " +
             obs::json_number(i < worst_chain_latency.size()
                                  ? worst_chain_latency[i]
                                  : 0) +
             "}";
    }
    out += "\n  ]";
  }
  out += ",\n  \"total_counterexamples\": " +
         obs::json_number(static_cast<std::uint64_t>(total_counterexamples));
  out += ",\n  \"counterexamples\": [";
  for (std::size_t i = 0; i < counterexamples.size(); ++i) {
    out += i > 0 ? ",\n    " : "\n    ";
    out += branch_json(counterexamples[i], arch);
  }
  out += counterexamples.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace ftsched::campaign
