// getenv parsing for the PARAGRAPH_* knobs.
#include "support/env.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <utility>

namespace pg {
namespace {

/// The one stderr line for a PARAGRAPH_* value that is not understood
/// (`problem`) and the value `used` instead, printed once per (variable,
/// value) pair: "paragraph: NAME=VALUE <problem>; using USED".
void report_fallback(const char* name, const std::string& value,
                     const std::string& problem, const std::string& used) {
  static std::mutex mutex;
  static std::set<std::pair<std::string, std::string>> reported;
  const std::lock_guard<std::mutex> lock(mutex);
  if (!reported.emplace(name, value).second) return;
  std::fprintf(stderr, "paragraph: %s=%s %s; using %s\n", name, value.c_str(),
               problem.c_str(), used.c_str());
}

/// The whole of `raw` as a base-10 integer (strtoll, so out-of-range text
/// saturates); nullopt when empty or followed by anything else.
std::optional<long long> parse_integer(const std::string& raw) {
  char* end = nullptr;
  const long long parsed = std::strtoll(raw.c_str(), &end, 10);
  if (raw.empty() || *end != '\0') return std::nullopt;
  return parsed;
}

std::string range_problem(std::int64_t lo, std::int64_t hi) {
  return "is out of range [" + std::to_string(lo) + ", " + std::to_string(hi) +
         "]";
}

}  // namespace

std::string env_string(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return (value == nullptr || *value == '\0') ? fallback : std::string(value);
}

std::int64_t int_in_range(const char* name, const std::string& raw,
                          std::int64_t fallback, std::int64_t lo,
                          std::int64_t hi) {
  const std::optional<long long> parsed = parse_integer(raw);
  if (!parsed) {
    report_fallback(name, raw, "is not an integer", std::to_string(fallback));
    return fallback;
  }
  const std::int64_t clamped = std::clamp<std::int64_t>(*parsed, lo, hi);
  if (clamped != *parsed)
    report_fallback(name, raw, range_problem(lo, hi), std::to_string(clamped));
  return clamped;
}

std::optional<std::int64_t> exact_int_in_range(const char* name,
                                               const std::string& raw,
                                               std::int64_t lo,
                                               std::int64_t hi) {
  const std::optional<long long> parsed = parse_integer(raw);
  if (parsed && *parsed >= lo && *parsed <= hi) return *parsed;
  std::fprintf(stderr, "paragraph: %s=%s %s\n", name, raw.c_str(),
               parsed ? range_problem(lo, hi).c_str() : "is not an integer");
  return std::nullopt;
}

std::optional<double> parse_finite(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(value))
    return std::nullopt;
  return value;
}

std::int64_t env_int_in_range(const char* name, std::int64_t fallback,
                              std::int64_t lo, std::int64_t hi) {
  const std::string raw = env_string(name, "");
  return raw.empty() ? fallback : int_in_range(name, raw, fallback, lo, hi);
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  return env_int_in_range(name, fallback, INT64_MIN, INT64_MAX);
}

std::int64_t env_thread_count(const char* threads_flag) {
  const std::int64_t flag =
      threads_flag == nullptr
          ? 0
          : int_in_range("--threads", threads_flag, 0, 0, kMaxThreads);
  return flag > 0 ? flag
                  : env_int_in_range("PARAGRAPH_THREADS", 0, 0, kMaxThreads);
}

RunScale run_scale_from_env() {
  const std::string raw = env_string("PARAGRAPH_SCALE", "default");
  if (raw == "smoke") return RunScale::kSmoke;
  if (raw == "full") return RunScale::kFull;
  if (raw != "default")
    report_fallback("PARAGRAPH_SCALE", raw, "is not a known scale", "default");
  return RunScale::kDefault;
}

const char* to_string(RunScale scale) {
  switch (scale) {
    case RunScale::kSmoke: return "smoke";
    case RunScale::kFull: return "full";
    case RunScale::kDefault: break;
  }
  return "default";
}

}  // namespace pg
