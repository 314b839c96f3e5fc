#include "io/cli_util.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "io/problem_format.hpp"

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

bool emit(const std::string& path, const std::string& content) {
  if (path.empty()) {
    std::fputs(content.c_str(), stdout);
    return true;
  }
  return write_file(path, content);
}

int finish_stdout(const char* tool, int status) {
  // std::cout is synced with stdio, so its bytes sit in stdout's buffer
  // until this flush; a failed write sets badbit or the stdio error flag.
  const bool cout_good = std::cout.flush().good();
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0 || !cout_good) {
    std::fprintf(stderr, "%s: cannot write stdout\n", tool);
    return 2;
  }
  return status;
}

Expected<std::string> read_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Error{Error::Code::kInvalidInput, "cannot open file"};
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

Expected<workload::OwnedProblem> load_problem(const std::string& path) {
  Expected<std::string> text = read_file(path);
  if (!text) return text.error();
  return read_problem(*text);
}

int input_error(const char* tool, const std::string& path,
                const std::string& message) {
  std::fprintf(stderr, "%s: %s: %s\n", tool, path.c_str(), message.c_str());
  return 3;
}

void report_scheduling_failure(const Error& error) {
  std::fprintf(stderr, "scheduling failed (%s): %s\n",
               to_string(error.code).c_str(), error.message.c_str());
}

bool ProblemFlags::parse(const std::string& arg) {
  if (arg == "--example1") {
    example1 = true;
  } else if (arg == "--example2") {
    example2 = true;
  } else if (arg == "--base") {
    kind = HeuristicKind::kBase;
  } else if (arg == "--solution1") {
    kind = HeuristicKind::kSolution1;
  } else if (arg == "--solution2") {
    kind = HeuristicKind::kSolution2;
  } else if (!arg.empty() && arg[0] != '-') {
    file = arg;
  } else {
    return false;
  }
  return true;
}

Expected<workload::OwnedProblem> ProblemFlags::load() const {
  if (example1) return workload::paper_example1();
  if (example2) return workload::paper_example2();
  return load_problem(file);
}

campaign::CampaignOptions default_campaign_options() {
  campaign::CampaignOptions options;
  options.spec.max_iterations = 3;
  options.spec.over_budget_fraction = 0.15;
  options.spec.silence_probability = 0.10;
  options.spec.suspect_probability = 0.10;
  return options;
}

}  // namespace ftsched::io
