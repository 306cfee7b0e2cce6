// Knobs from the environment (and integer command-line flags).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace pg {

/// Reads an environment variable, returning `fallback` when unset/empty.
std::string env_string(const char* name, const std::string& fallback);

/// The strict parse and clamp behind every integer knob: `raw` is the text
/// given under `name`, an environment variable or a command-line flag. Text
/// that is not an integer returns `fallback` and one outside [lo, hi] is
/// clamped; either prints one stderr line per (name, value) pair:
/// "paragraph: NAME=VALUE is not an integer; using FALLBACK" or
/// "paragraph: NAME=VALUE is out of range [LO, HI]; using CLAMPED".
std::int64_t int_in_range(const char* name, const std::string& raw,
                          std::int64_t fallback, std::int64_t lo,
                          std::int64_t hi);

/// The same parse for a value that must not be replaced: an identifier
/// such as a port, or a count that defines what a run measures. Text that
/// is not an integer, or one outside [lo, hi], returns nullopt after one
/// stderr line, "paragraph: NAME=VALUE is not an integer" or "paragraph:
/// NAME=VALUE is out of range [LO, HI]"; the caller exits non-zero.
std::optional<std::int64_t> exact_int_in_range(const char* name,
                                               const std::string& raw,
                                               std::int64_t lo,
                                               std::int64_t hi);

/// The whole of `text` as a finite double, else nullopt (the float
/// options' parse; their callers name the option in the error).
std::optional<double> parse_finite(const std::string& text);

/// int_in_range over an environment variable; unset or empty returns
/// `fallback` as is.
std::int64_t env_int_in_range(const char* name, std::int64_t fallback,
                              std::int64_t lo, std::int64_t hi);

/// env_int_in_range without bounds: only a non-integer is reported.
std::int64_t env_int(const char* name, std::int64_t fallback);

/// Most OpenMP threads a PARAGRAPH_THREADS value may ask for.
inline constexpr std::int64_t kMaxThreads = 256;

/// Worker-thread override in [0, kMaxThreads]: a positive `--threads` value
/// beats `PARAGRAPH_THREADS`, both read by int_in_range; 0 means "keep the
/// OpenMP default". Consumers (the CLI's predict/corpus subcommands) pass a
/// positive result to omp_set_num_threads before building engines.
std::int64_t env_thread_count(const char* threads_flag = nullptr);

/// Dataset scale selector: `PARAGRAPH_SCALE` = "smoke" | "default" | "full".
/// Controls how many sweep points the dataset generator emits; see
/// `dataset::SweepScale`. An unrecognised value runs kDefault and is
/// reported on stderr.
enum class RunScale { kSmoke, kDefault, kFull };

RunScale run_scale_from_env();

/// Human-readable name of a scale value ("smoke"/"default"/"full").
const char* to_string(RunScale scale);

}  // namespace pg
