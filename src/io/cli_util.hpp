// Hardened helpers for command-line front ends (examples/*_tool): numeric
// operand parsing that rejects out-of-range input instead of silently
// saturating, and file writing that reports stream failure instead of
// returning success over a truncated artifact.
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

}  // namespace ftsched::io
