// The one FNV-1a (core/hash.hpp): the published test vectors, and the
// callers' hash values pinned so a refactor of the hash or of its callers
// cannot silently re-key fault patterns, schedules or certifyd plan keys.
// The pinned values are paper_example1 Solution 1's and were captured
// before the four hand-written FNV-1a loops became this one.
#include "core/hash.hpp"

#include <gtest/gtest.h>

#include "campaign/canonical.hpp"
#include "campaign/certify.hpp"
#include "sched/heuristics.hpp"
#include "service/cache.hpp"
#include "workload/paper_examples.hpp"

namespace ftsched {
namespace {

TEST(Fnv1a, MatchesStandardVectors) {
  static_assert(fnv1a("") == 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, U64MixesLittleEndianBytes) {
  Fnv1a words;
  words.u64(0x0807060504030201ULL);
  EXPECT_EQ(words.value(), fnv1a("\x01\x02\x03\x04\x05\x06\x07\x08"));
}

TEST(Fnv1a, CallersKeepTheirPinnedValues) {
  const workload::OwnedProblem ex = workload::paper_example1();
  const Schedule schedule = schedule_solution1(ex.problem).value();
  const ArchitectureGraph& arch = *ex.problem.architecture;
  EXPECT_EQ(schedule_hash(schedule), 0xce17733c2288bbb4ULL);

  MissionPlan plan;
  plan.iterations = 2;
  plan.dead_at_start = {arch.find_processor("P3")};
  plan.failures = {
      MissionFailure{1, FailureEvent{arch.find_processor("P1"), 2.5}}};
  plan.silences = {
      MissionSilence{0, SilentWindow{arch.find_processor("P2"), 1.0, 3.0}}};
  EXPECT_EQ(campaign::plan_key(plan), 0x2b0cb7e5857cb46fULL);
  EXPECT_EQ(campaign::plan_key(MissionPlan{}), 0x2d920d177e15c942ULL);

  campaign::CertifySpec spec;
  spec.latency_constraints = {{"io", "I", "O", 12.5}, {"ab", "A", "B", 7}};
  // The -q suffix is the latency-constraint hash.
  EXPECT_EQ(service::plan_key_string(schedule, spec),
            "pk-ce17733c2288bbb4-k1-l0-s0-rinf-d1-c16-qb8d0a31423338602");
}

}  // namespace
}  // namespace ftsched
