// The hardened CLI operand parsers and artifact writer. Both tests pin
// real bugs: strtol/strtod report overflow ONLY through errno — the
// pre-fix parsers accepted "99999999999999999999" as a saturated
// LONG_MAX / HUGE_VAL — and ofstream reports disk-full or open failure
// only through the stream state the pre-fix writer never looked at.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "io/cli_util.hpp"

namespace ftsched::io {
namespace {

TEST(CliUtil, ParseNumberAcceptsPlainDecimals) {
  long out = -1;
  EXPECT_EQ(parse_number("0", out), ParseStatus::kOk);
  EXPECT_EQ(out, 0);
  EXPECT_EQ(parse_number("12345", out), ParseStatus::kOk);
  EXPECT_EQ(out, 12345);
}

TEST(CliUtil, ParseNumberRejectsMalformedOperands) {
  long out = 0;
  EXPECT_EQ(parse_number("", out), ParseStatus::kMalformed);
  EXPECT_EQ(parse_number("12abc", out), ParseStatus::kMalformed);
  EXPECT_EQ(parse_number("abc", out), ParseStatus::kMalformed);
  EXPECT_EQ(parse_number("-3", out), ParseStatus::kMalformed);
  EXPECT_EQ(parse_number("1 2", out), ParseStatus::kMalformed);
}

TEST(CliUtil, ParseNumberRejectsOverflowInsteadOfSaturating) {
  // strtol returns LONG_MAX here and only errno says anything went wrong;
  // the pre-fix parser accepted this operand as a "valid" huge budget.
  long out = 0;
  EXPECT_EQ(parse_number("99999999999999999999", out),
            ParseStatus::kOutOfRange);
  EXPECT_EQ(parse_number("-99999999999999999999", out),
            ParseStatus::kOutOfRange);
}

TEST(CliUtil, ParseFractionEnforcesTheUnitInterval) {
  double out = -1;
  EXPECT_EQ(parse_fraction("0", out), ParseStatus::kOk);
  EXPECT_EQ(out, 0.0);
  EXPECT_EQ(parse_fraction("0.25", out), ParseStatus::kOk);
  EXPECT_EQ(out, 0.25);
  EXPECT_EQ(parse_fraction("1", out), ParseStatus::kOk);
  EXPECT_EQ(parse_fraction("1.5", out), ParseStatus::kMalformed);
  EXPECT_EQ(parse_fraction("-0.5", out), ParseStatus::kMalformed);
  EXPECT_EQ(parse_fraction("half", out), ParseStatus::kMalformed);
  // 1e999 overflows to HUGE_VAL with errno = ERANGE: out of range, not
  // merely outside [0, 1].
  EXPECT_EQ(parse_fraction("1e999", out), ParseStatus::kOutOfRange);
}

TEST(CliUtil, ParseTimeRequiresAFinitePositiveValue) {
  double out = 0;
  EXPECT_EQ(parse_time("2.5", out), ParseStatus::kOk);
  EXPECT_EQ(out, 2.5);
  EXPECT_EQ(parse_time("0", out), ParseStatus::kMalformed);
  EXPECT_EQ(parse_time("-1", out), ParseStatus::kMalformed);
  EXPECT_EQ(parse_time("soon", out), ParseStatus::kMalformed);
  EXPECT_EQ(parse_time("1e999", out), ParseStatus::kOutOfRange);
}

TEST(CliUtil, ParseNonnegativeAcceptsZeroAndRejectsOverflow) {
  double out = -1;
  EXPECT_EQ(parse_nonnegative("0", out), ParseStatus::kOk);
  EXPECT_EQ(out, 0.0);
  EXPECT_EQ(parse_nonnegative("2.5", out), ParseStatus::kOk);
  EXPECT_EQ(out, 2.5);
  EXPECT_EQ(parse_nonnegative("-0.5", out), ParseStatus::kMalformed);
  EXPECT_EQ(parse_nonnegative("2.5x", out), ParseStatus::kMalformed);
  EXPECT_EQ(parse_nonnegative("1e999", out), ParseStatus::kOutOfRange);
}

TEST(CliUtil, ParseShardValidatesTheAssignment) {
  std::size_t index = 99, count = 99;
  EXPECT_EQ(parse_shard("0/1", index, count), ParseStatus::kOk);
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(parse_shard("3/8", index, count), ParseStatus::kOk);
  EXPECT_EQ(index, 3u);
  EXPECT_EQ(count, 8u);
  EXPECT_EQ(parse_shard("8/8", index, count), ParseStatus::kMalformed);
  EXPECT_EQ(parse_shard("-1/8", index, count), ParseStatus::kMalformed);
  EXPECT_EQ(parse_shard("3", index, count), ParseStatus::kMalformed);
  EXPECT_EQ(parse_shard("3/", index, count), ParseStatus::kMalformed);
  EXPECT_EQ(parse_shard("a/b", index, count), ParseStatus::kMalformed);
  EXPECT_EQ(parse_shard("3/8x", index, count), ParseStatus::kMalformed);
  EXPECT_EQ(parse_shard("99999999999999999999/8", index, count),
            ParseStatus::kOutOfRange);
  EXPECT_EQ(parse_shard("1/99999999999999999999", index, count),
            ParseStatus::kOutOfRange);
}

TEST(CliUtil, WriteFileRoundTripsContent) {
  const std::string path = ::testing::TempDir() + "cli_util_roundtrip.txt";
  ASSERT_TRUE(write_file(path, "frontier\n"));
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "frontier");
  std::remove(path.c_str());
}

TEST(CliUtil, WriteFileReportsAnUnopenablePath) {
  // A path under a directory that does not exist cannot be opened; the
  // pre-fix writer returned true here and the caller shipped no artifact.
  EXPECT_FALSE(write_file("/nonexistent-ftsched-dir/out.json", "x"));
}

TEST(CliUtil, WriteFileReportsStreamFailureAfterTheWrite) {
  // /dev/full accepts the open but fails the flush with ENOSPC — the
  // exact disk-full shape the stream-state check exists for. Only
  // meaningful where the device exists (Linux CI).
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  probe.close();
  EXPECT_FALSE(write_file("/dev/full", "does not fit\n"));
}

}  // namespace
}  // namespace ftsched::io
