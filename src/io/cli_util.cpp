#include "io/cli_util.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace ftsched::io {

namespace {

/// strtol/strtod communicate overflow ONLY through errno: the return value
/// is a saturated LONG_MAX / HUGE_VAL that passes naive range checks.
/// errno must be cleared before the call — a stale ERANGE from an earlier
/// library call would otherwise condemn a perfectly good operand.
template <typename Value, typename Convert>
ParseStatus checked(const char* text, Value& out, Convert convert) {
  errno = 0;
  char* end = nullptr;
  out = convert(text, &end);
  if (end == text || *end != '\0') return ParseStatus::kMalformed;
  if (errno == ERANGE) return ParseStatus::kOutOfRange;
  return ParseStatus::kOk;
}

}  // namespace

ParseStatus parse_number(const char* text, long& out) {
  const ParseStatus status = checked(
      text, out, [](const char* s, char** end) { return std::strtol(s, end, 10); });
  if (status != ParseStatus::kOk) return status;
  return out >= 0 ? ParseStatus::kOk : ParseStatus::kMalformed;
}

ParseStatus parse_fraction(const char* text, double& out) {
  const ParseStatus status = checked(
      text, out, [](const char* s, char** end) { return std::strtod(s, end); });
  if (status != ParseStatus::kOk) return status;
  return out >= 0.0 && out <= 1.0 ? ParseStatus::kOk
                                  : ParseStatus::kMalformed;
}

ParseStatus parse_time(const char* text, double& out) {
  const ParseStatus status = checked(
      text, out, [](const char* s, char** end) { return std::strtod(s, end); });
  if (status != ParseStatus::kOk) return status;
  return out > 0.0 ? ParseStatus::kOk : ParseStatus::kMalformed;
}

ParseStatus parse_nonnegative(const char* text, double& out) {
  const ParseStatus status = checked(
      text, out, [](const char* s, char** end) { return std::strtod(s, end); });
  if (status != ParseStatus::kOk) return status;
  return out >= 0.0 ? ParseStatus::kOk : ParseStatus::kMalformed;
}

ParseStatus parse_shard(const char* text, std::size_t& index,
                        std::size_t& count) {
  errno = 0;
  char* end = nullptr;
  const long i = std::strtol(text, &end, 10);
  if (end == text || *end != '/') return ParseStatus::kMalformed;
  if (errno == ERANGE) return ParseStatus::kOutOfRange;
  const char* rest = end + 1;
  errno = 0;
  const long n = std::strtol(rest, &end, 10);
  if (end == rest || *end != '\0') return ParseStatus::kMalformed;
  if (errno == ERANGE) return ParseStatus::kOutOfRange;
  if (i < 0 || n <= 0 || i >= n) return ParseStatus::kMalformed;
  index = static_cast<std::size_t>(i);
  count = static_cast<std::size_t>(n);
  return ParseStatus::kOk;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  file << content;
  file.flush();
  // operator<< reports disk-full and I/O errors only through the stream
  // state; without this check a truncated artifact looks like success.
  if (!file.good()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace ftsched::io
