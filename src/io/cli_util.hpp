// Helpers for the command-line front ends (examples/*_tool): numeric
// operand parsing that rejects out-of-range input instead of silently
// saturating, file writing that reports stream failure instead of
// returning success over a truncated artifact, and the problem-source
// flags, problem loading and diagnostics every tool shares.
//
// Both exist because of real CLI bugs: strtol/strtod set errno = ERANGE on
// overflow but still return LONG_MAX / HUGE_VAL, so a parser that only
// checks the end pointer accepts "--rounds 99999999999999999999" as
// LONG_MAX; and ofstream::operator<< reports disk-full or I/O errors only
// through the stream state, so a writer that never looks at it reports
// success while leaving a truncated certificate behind.
#pragma once

#include <cstddef>
#include <string>

#include "campaign/runner.hpp"
#include "core/error.hpp"
#include "sched/schedule.hpp"
#include "workload/paper_examples.hpp"

namespace ftsched::io {

/// Outcome of parsing one numeric operand. kMalformed (not a number,
/// trailing garbage, out of the accepted domain) is a usage error;
/// kOutOfRange (errno == ERANGE overflow/underflow) deserves its own
/// diagnostic — the text LOOKS like a valid number and silently clamping
/// it is how the pre-fix CLI accepted impossible budgets.
enum class ParseStatus { kOk, kMalformed, kOutOfRange };

/// Non-negative decimal integer into `out`.
[[nodiscard]] ParseStatus parse_number(const char* text, long& out);

/// Double in [0, 1] into `out`.
[[nodiscard]] ParseStatus parse_fraction(const char* text, double& out);

/// Strictly positive double into `out`.
[[nodiscard]] ParseStatus parse_time(const char* text, double& out);

/// Non-negative double into `out`.
[[nodiscard]] ParseStatus parse_nonnegative(const char* text, double& out);

/// "I/N" shard assignment with 0 <= I < N.
[[nodiscard]] ParseStatus parse_shard(const char* text, std::size_t& index,
                                      std::size_t& count);

/// Writes `content` to `path`. False — with a "cannot write <path>"
/// diagnostic on stderr — when the file cannot be opened OR the stream is
/// not good() after writing and flushing (disk full, I/O error), so a
/// truncated artifact is never reported as success.
[[nodiscard]] bool write_file(const std::string& path,
                              const std::string& content);

/// Writes `content` to stdout when `path` is empty, else through
/// write_file.
[[nodiscard]] bool emit(const std::string& path, const std::string& content);

/// Flushes stdout (C stdio and std::cout) and returns `status` — or 2,
/// with "<tool>: cannot write stdout" on stderr, when a byte written there
/// was lost (disk full, I/O error). Every tool's main returns through it,
/// so a truncated report on stdout is never reported as success.
[[nodiscard]] int finish_stdout(const char* tool, int status);

/// The whole file at `path`; the error message is "cannot open file".
[[nodiscard]] Expected<std::string> read_file(const std::string& path);

/// read_file + read_problem: the error message is "cannot open file" or
/// the parser's "line N: ...".
[[nodiscard]] Expected<workload::OwnedProblem> load_problem(
    const std::string& path);

/// Prints "<tool>: <path>: <message>" on stderr and returns 3, the exit
/// status every tool gives an unreadable or malformed input file, so
/// scripts can tell bad input from bad usage (2).
int input_error(const char* tool, const std::string& path,
                const std::string& message);

/// Prints "scheduling failed (<code>): <message>" on stderr.
void report_scheduling_failure(const Error& error);

/// The flags every tool takes to name its problem and heuristic:
/// `<file | --example1 | --example2>` and
/// `[--base | --solution1 | --solution2]` (default Solution 1).
struct ProblemFlags {
  std::string file;
  bool example1 = false;
  bool example2 = false;
  HeuristicKind kind = HeuristicKind::kSolution1;

  /// Takes `arg` if it is one of these flags or a file operand (anything
  /// not starting with '-').
  bool parse(const std::string& arg);

  /// Whether any problem source was named.
  [[nodiscard]] bool given() const {
    return example1 || example2 || !file.empty();
  }

  /// The named problem: --example1 over --example2 over load_problem(file).
  [[nodiscard]] Expected<workload::OwnedProblem> load() const;
};

/// The campaign mix campaign_tool and `trace_tool profile` default to:
/// short missions, some over-budget attacks, occasional benign silences
/// and wrong suspicions. Link faults stay opt-in: they are outside the
/// paper's failure hypothesis.
[[nodiscard]] campaign::CampaignOptions default_campaign_options();

}  // namespace ftsched::io
