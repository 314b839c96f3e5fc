#include "sched/schedule.hpp"

#include <algorithm>
#include <bit>

#include "core/hash.hpp"

namespace ftsched {

std::string to_string(HeuristicKind kind) {
  switch (kind) {
    case HeuristicKind::kBase:
      return "base (non fault-tolerant)";
    case HeuristicKind::kSolution1:
      return "solution 1 (passive comm redundancy)";
    case HeuristicKind::kSolution2:
      return "solution 2 (active comm redundancy)";
    case HeuristicKind::kHybrid:
      return "hybrid (per-dependency comm redundancy)";
  }
  return "unknown";
}

Schedule::Schedule(const Problem& problem, HeuristicKind kind)
    : problem_(&problem),
      kind_(kind),
      k_(kind == HeuristicKind::kBase ? 0 : problem.failures_to_tolerate),
      replica_index_(problem.algorithm->operation_count()),
      active_comm_(problem.algorithm->dependency_count(),
                   kind == HeuristicKind::kSolution2 ? 1 : 0) {
  // Exact replica count and a comm estimate up front, so the engine's
  // commit loop never reallocates ops_ (replicas_view hands out borrowed
  // pointers into it between commits).
  ops_.reserve(problem.algorithm->operation_count() *
               static_cast<std::size_t>(k_ + 1));
  comms_.reserve(problem.algorithm->dependency_count() *
                 static_cast<std::size_t>(k_ + 1));
}

bool Schedule::uses_active_comms(DependencyId dep) const {
  FTSCHED_REQUIRE(dep.valid() && dep.index() < active_comm_.size(),
                  "unknown dependency id");
  return active_comm_[dep.index()] != 0;
}

void Schedule::set_active_comms(DependencyId dep) {
  FTSCHED_REQUIRE(dep.valid() && dep.index() < active_comm_.size(),
                  "unknown dependency id");
  active_comm_[dep.index()] = 1;
}

std::size_t Schedule::active_comm_dep_count() const {
  std::size_t count = 0;
  for (char flag : active_comm_) count += flag != 0;
  return count;
}

void Schedule::add_operation(const ScheduledOperation& placement) {
  FTSCHED_REQUIRE(placement.op.valid() &&
                      placement.op.index() < replica_index_.size(),
                  "placement references an unknown operation");
  auto& index = replica_index_[placement.op.index()];
  FTSCHED_REQUIRE(placement.rank == static_cast<int>(index.size()),
                  "replicas must be added in rank order");
  FTSCHED_REQUIRE(replica_on(placement.op, placement.processor) == nullptr,
                  "two replicas of one operation on the same processor");
  index.push_back(ops_.size());
  ops_.push_back(placement);
}

void Schedule::add_comm(ScheduledComm comm) {
  FTSCHED_REQUIRE(comm.dep.valid(), "comm references an invalid dependency");
  comms_.push_back(std::move(comm));
}

std::vector<const ScheduledOperation*> Schedule::replicas(
    OperationId op) const {
  std::vector<const ScheduledOperation*> result;
  for (std::size_t i : replica_index_[op.index()]) {
    result.push_back(&ops_[i]);
  }
  return result;
}

const ScheduledOperation* Schedule::main(OperationId op) const {
  const auto& index = replica_index_[op.index()];
  return index.empty() ? nullptr : &ops_[index.front()];
}

const ScheduledOperation* Schedule::replica_on(OperationId op,
                                               ProcessorId proc) const {
  for (std::size_t i : replica_index_[op.index()]) {
    if (ops_[i].processor == proc) return &ops_[i];
  }
  return nullptr;
}

std::vector<const ScheduledOperation*> Schedule::operations_on(
    ProcessorId proc) const {
  std::vector<const ScheduledOperation*> result;
  for (const ScheduledOperation& placement : ops_) {
    if (placement.processor == proc) result.push_back(&placement);
  }
  std::sort(result.begin(), result.end(),
            [](const ScheduledOperation* a, const ScheduledOperation* b) {
              if (!time_eq(a->start, b->start)) return a->start < b->start;
              return a->op < b->op;
            });
  return result;
}

std::vector<std::pair<const ScheduledComm*, const CommSegment*>>
Schedule::segments_on(LinkId link) const {
  std::vector<std::pair<const ScheduledComm*, const CommSegment*>> result;
  for (const ScheduledComm& comm : comms_) {
    if (!comm.active) continue;
    for (const CommSegment& seg : comm.segments) {
      if (seg.link == link) result.emplace_back(&comm, &seg);
    }
  }
  std::sort(result.begin(), result.end(), [](const auto& a, const auto& b) {
    if (!time_eq(a.second->start, b.second->start)) {
      return a.second->start < b.second->start;
    }
    return a.first->dep < b.first->dep;
  });
  return result;
}

std::vector<const ScheduledComm*> Schedule::comms_of(DependencyId dep) const {
  std::vector<const ScheduledComm*> result;
  for (const ScheduledComm& comm : comms_) {
    if (comm.dep == dep && comm.active) result.push_back(&comm);
  }
  return result;
}

Time Schedule::makespan() const {
  Time end = 0;
  for (const ScheduledOperation& placement : ops_) {
    end = std::max(end, placement.end);
  }
  for (const ScheduledComm& comm : comms_) {
    if (!comm.active) continue;
    for (const CommSegment& seg : comm.segments) {
      end = std::max(end, seg.end);
    }
  }
  return end;
}

std::vector<ProcessorId> Schedule::comm_hops(const ScheduledComm& comm) const {
  const ArchitectureGraph& arch = *problem_->architecture;
  std::vector<ProcessorId> hops{comm.from};
  ProcessorId at = comm.from;
  for (std::size_t i = 0; i < comm.segments.size(); ++i) {
    const Link& link = arch.link(comm.segments[i].link);
    FTSCHED_REQUIRE(link.connects(at),
                    "comm segments do not form a contiguous route");
    if (i + 1 == comm.segments.size()) {
      at = comm.to;
    } else {
      const Link& next = arch.link(comm.segments[i + 1].link);
      ProcessorId relay;
      for (ProcessorId endpoint : link.endpoints) {
        if (endpoint != at && next.connects(endpoint)) {
          relay = endpoint;
          break;
        }
      }
      FTSCHED_REQUIRE(relay.valid(),
                      "comm segments do not form a contiguous route");
      at = relay;
    }
    hops.push_back(at);
  }
  return hops;
}

std::size_t Schedule::active_comm_count() const {
  std::size_t count = 0;
  for (const ScheduledComm& comm : comms_) {
    if (comm.active) ++count;
  }
  return count;
}

namespace {

/// schedule_hash's field mixer: every field as one little-endian u64.
struct ScheduleHasher {
  Fnv1a fnv;

  void mix(std::uint64_t v) { fnv.u64(v); }
  void mix_time(Time t) { mix(std::bit_cast<std::uint64_t>(t)); }
  template <class Tag>
  void mix_id(Id<Tag> id) {
    mix(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(id.value())));
  }
};

}  // namespace

std::uint64_t schedule_hash(const Schedule& schedule) {
  ScheduleHasher h;
  h.mix(static_cast<std::uint64_t>(schedule.kind()));
  h.mix(static_cast<std::uint64_t>(schedule.failures_tolerated()));
  for (const Dependency& dep : schedule.problem().algorithm->dependencies()) {
    h.mix(schedule.uses_active_comms(dep.id) ? 1 : 0);
  }
  h.mix(schedule.operations().size());
  for (const ScheduledOperation& op : schedule.operations()) {
    h.mix_id(op.op);
    h.mix(static_cast<std::uint64_t>(op.rank));
    h.mix_id(op.processor);
    h.mix_time(op.start);
    h.mix_time(op.end);
  }
  h.mix(schedule.comms().size());
  for (const ScheduledComm& comm : schedule.comms()) {
    h.mix_id(comm.dep);
    h.mix(static_cast<std::uint64_t>(comm.sender_rank));
    h.mix_id(comm.from);
    h.mix_id(comm.to);
    h.mix(comm.delivered_to.size());
    for (ProcessorId proc : comm.delivered_to) h.mix_id(proc);
    h.mix(comm.segments.size());
    for (const CommSegment& seg : comm.segments) {
      h.mix_id(seg.link);
      h.mix_time(seg.start);
      h.mix_time(seg.end);
    }
    h.mix(comm.active ? 1 : 0);
    h.mix(comm.liveness ? 1 : 0);
  }
  return h.fnv.value();
}

}  // namespace ftsched
