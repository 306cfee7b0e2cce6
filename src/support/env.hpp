// Environment-variable knobs shared by benches and examples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace pg {

/// Reads an environment variable, returning `fallback` when unset/empty.
std::string env_string(const char* name, const std::string& fallback);

/// Reads an integer environment variable (fallback on unset or parse error).
/// A value that does not parse prints one stderr line per process, as every
/// knob below does for a value it does not understand:
/// "paragraph: NAME=VALUE is not an integer; using FALLBACK".
std::int64_t env_int(const char* name, std::int64_t fallback);

/// Reads an integer knob that must lie in [lo, hi]: env_int, then a set
/// value outside the range is clamped into it and reported once on stderr:
/// "paragraph: NAME=VALUE is out of range [LO, HI]; using CLAMPED". An
/// unset variable returns `fallback` as is.
std::int64_t env_int_in_range(const char* name, std::int64_t fallback,
                              std::int64_t lo, std::int64_t hi);

/// Most OpenMP threads a PARAGRAPH_THREADS value may ask for.
inline constexpr std::int64_t kMaxThreads = 256;

/// Worker-thread override: `PARAGRAPH_THREADS` in [0, kMaxThreads], 0 when
/// unset or invalid — 0 means "keep the OpenMP default". Consumers (the
/// CLI's predict/corpus subcommands) pass a positive value to
/// omp_set_num_threads before building engines or datasets.
std::int64_t env_thread_count();

/// Dataset scale selector: `PARAGRAPH_SCALE` = "smoke" | "default" | "full".
/// Controls how many sweep points the dataset generator emits; see
/// `dataset::SweepScale`. An unrecognised value runs kDefault and is
/// reported on stderr.
enum class RunScale { kSmoke, kDefault, kFull };

RunScale run_scale_from_env();

/// Human-readable name of a scale value ("smoke"/"default"/"full").
const char* to_string(RunScale scale);

}  // namespace pg
