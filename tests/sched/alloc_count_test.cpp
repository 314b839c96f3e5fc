// Allocation accounting for the list-scheduler select loop and the
// exhaustive certifier's exploration loop.
//
// The engine's contract (DESIGN.md "Scheduler performance"): tentative
// evaluation allocates nothing — scratch timelines, evaluation caches, and
// kept sets live in members sized once per run — so total heap traffic of
// one schedule() call grows linearly with the problem (CSR tables, commit
// records, the schedule itself), not with steps x candidates x processors
// the way a per-evaluation scratch copy would. This binary overrides global
// operator new/delete with a toggleable counter (its own binary, so the
// override cannot leak into other test executables) and pins both the
// growth rate and an absolute per-operation budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

// Replacing the global allocation functions with a malloc/free-backed pair
// is the standard [new.delete.single] pattern, but once the sanitizers make
// GCC inline both sides into one caller it flags the new/free pairing as
// mismatched. False positive for whole-program replacement; silence it for
// this TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

// Under AddressSanitizer the runtime's interceptors own operator new/delete;
// a partial user replacement splits allocations between the two and ASan
// (correctly, from its view) reports alloc-dealloc mismatches. Counting is
// meaningless there anyway — the Release CI job carries this check.
#if defined(__SANITIZE_ADDRESS__)
#define FTSCHED_ALLOC_COUNT_UNAVAILABLE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FTSCHED_ALLOC_COUNT_UNAVAILABLE 1
#endif
#endif

#include "campaign/certify.hpp"
#include "sched/heuristics.hpp"
#include "workload/paper_examples.hpp"
#include "workload/random_arch.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

#ifndef FTSCHED_ALLOC_COUNT_UNAVAILABLE

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // FTSCHED_ALLOC_COUNT_UNAVAILABLE

namespace ftsched {
namespace {

workload::OwnedProblem sized_problem(std::size_t operations) {
  workload::RandomProblemParams params;
  params.dag.operations = operations;
  params.dag.width = 6;
  params.arch_kind = workload::ArchKind::kFullyConnected;
  params.processors = 4;
  params.failures_to_tolerate = 1;
  params.ccr = 0.5;
  params.seed = 97;
  return workload::random_problem(params);
}

std::size_t count_schedule_allocations(const Problem& problem) {
  g_allocations.store(0);
  g_counting.store(true);
  const Expected<Schedule> result =
      schedule(problem, HeuristicKind::kSolution2, {});
  g_counting.store(false);
  EXPECT_TRUE(result.has_value());
  return g_allocations.load();
}

TEST(AllocationCount, ScheduleHeapTrafficGrowsLinearly) {
#ifdef FTSCHED_ALLOC_COUNT_UNAVAILABLE
  GTEST_SKIP() << "sanitizer runtime owns the global allocation operators";
#endif
  const workload::OwnedProblem small = sized_problem(60);
  const workload::OwnedProblem large = sized_problem(120);

  const std::size_t small_allocs = count_schedule_allocations(small.problem);
  const std::size_t large_allocs = count_schedule_allocations(large.problem);

  // A per-evaluation scratch allocation makes heap traffic superlinear
  // (steps x candidates x processors ~ n^2: doubling n quadruples it). The
  // allocation-free select loop leaves only linear terms, so doubling the
  // problem must stay well under 3x.
  EXPECT_LT(large_allocs, 3 * small_allocs)
      << "small=" << small_allocs << " large=" << large_allocs;

  // Absolute budget: committed comm records and the schedule dominate
  // (~29 allocations/operation when this was written). The pre-incremental
  // engine sat far above 40/op (one link-timeline copy per evaluation ~
  // 80+/op); keep headroom for library-vector growth but fail on any
  // return of per-evaluation allocation.
  EXPECT_LT(large_allocs, 120 * 40u)
      << "heap traffic per operation regressed: " << large_allocs;
}

/// The cache toggle must not change what the engine allocates per
/// evaluation — OFF re-evaluates more often but still allocation-free.
TEST(AllocationCount, ReferenceModeAlsoAllocationFreePerEvaluation) {
#ifdef FTSCHED_ALLOC_COUNT_UNAVAILABLE
  GTEST_SKIP() << "sanitizer runtime owns the global allocation operators";
#endif
  const workload::OwnedProblem small = sized_problem(60);
  const workload::OwnedProblem large = sized_problem(120);

  SchedulerOptions off;
  off.incremental_select = false;

  g_allocations.store(0);
  g_counting.store(true);
  const Expected<Schedule> s = schedule(small.problem,
                                        HeuristicKind::kSolution2, off);
  g_counting.store(false);
  ASSERT_TRUE(s.has_value());
  const std::size_t small_allocs = g_allocations.load();

  g_allocations.store(0);
  g_counting.store(true);
  const Expected<Schedule> l = schedule(large.problem,
                                        HeuristicKind::kSolution2, off);
  g_counting.store(false);
  ASSERT_TRUE(l.has_value());
  const std::size_t large_allocs = g_allocations.load();

  EXPECT_LT(large_allocs, 3 * small_allocs)
      << "small=" << small_allocs << " large=" << large_allocs;
}

/// The fig22 K=2+S=1 sweep at one thread.
campaign::CertifySpec fig22_k2s1_spec() {
  campaign::CertifySpec spec;
  spec.max_failures = 2;
  spec.max_silences = 1;
  spec.threads = 1;
  return spec;
}

struct SweepShape {
  std::size_t branches = 0;
  /// Fault patterns with budget left, which children fork from.
  std::size_t interior = 0;
};

/// The shape of `spec`'s sweep, counted on a collecting run outside any
/// measurement. Checks that leaves dominate the sweep.
SweepShape sweep_shape(const Schedule& schedule,
                       const campaign::CertifySpec& spec) {
  campaign::CertifySpec collect = spec;
  collect.collect_branches = true;
  const campaign::CertifyReport all = campaign::certify(schedule, collect);
  std::size_t interior = 0;
  for (const campaign::CertifyBranch& branch : all.branches_list) {
    const bool crash_left =
        branch.dead_at_start.size() + branch.crashes.size() < 2;
    if (crash_left || branch.silences.empty()) ++interior;
  }
  EXPECT_GT(interior, 0u);
  EXPECT_GT(all.branches, 10 * interior);
  return SweepShape{all.branches, interior};
}

/// The certifier's steady state allocates nothing per explored node:
/// every budget-exhausted leaf reloads one reused arena, every interior
/// node reuses its depth's level (campaign/certify.cpp), and explorer
/// scratch is recycled across slices. On the fig22 K=2+S=1 sweep at one
/// thread the whole sweep must therefore allocate less than once per
/// interior node — far less than once per branch — so one allocation per
/// leaf (or per interior node) fails the check.
TEST(AllocationCount, CertifySweepAllocatesLessThanOncePerInteriorNode) {
#ifdef FTSCHED_ALLOC_COUNT_UNAVAILABLE
  GTEST_SKIP() << "sanitizer runtime owns the global allocation operators";
#endif
  const workload::OwnedProblem ex = workload::paper_example2();
  const Schedule schedule = schedule_solution2(ex.problem).value();
  const campaign::CertifySpec spec = fig22_k2s1_spec();
  const SweepShape shape = sweep_shape(schedule, spec);
  const std::size_t interior = shape.interior;

  g_allocations.store(0);
  g_counting.store(true);
  const campaign::CertifyReport report = campaign::certify(schedule, spec);
  g_counting.store(false);
  const std::size_t allocations = g_allocations.load();
  EXPECT_EQ(report.branches, shape.branches);
  EXPECT_LT(allocations, interior)
      << "branches=" << report.branches << " interior=" << interior;
}

/// With a cold leaf cache attached, the same sweep also builds every
/// leaf's cache key in reused buffers and publishes the fresh leaves into
/// the reserved map after the sweep: at most one allocation per published
/// entry (its map node) on top of the cache-off budget, none per key.
TEST(AllocationCount, CacheAttachedSweepAllocatesOncePerPublishedEntry) {
#ifdef FTSCHED_ALLOC_COUNT_UNAVAILABLE
  GTEST_SKIP() << "sanitizer runtime owns the global allocation operators";
#endif
  const workload::OwnedProblem ex = workload::paper_example2();
  const Schedule schedule = schedule_solution2(ex.problem).value();
  campaign::CertifySpec spec = fig22_k2s1_spec();
  const SweepShape shape = sweep_shape(schedule, spec);
  const std::size_t interior = shape.interior;
  campaign::CertifyCache cache;
  spec.cache = &cache;

  g_allocations.store(0);
  g_counting.store(true);
  const campaign::CertifyReport report = campaign::certify(schedule, spec);
  g_counting.store(false);
  const std::size_t allocations = g_allocations.load();
  EXPECT_EQ(report.branches, shape.branches);
  EXPECT_EQ(report.leaves_reused, 0u);
  EXPECT_GT(cache.size(), 10 * interior);
  EXPECT_LT(allocations, interior + cache.size())
      << "branches=" << report.branches << " interior=" << interior
      << " entries=" << cache.size();
}

}  // namespace
}  // namespace ftsched
