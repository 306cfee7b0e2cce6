// Environment-variable knobs shared by benches and examples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace pg {

/// Reads an environment variable, returning `fallback` when unset/empty.
std::string env_string(const char* name, const std::string& fallback);

/// Reads an integer environment variable (fallback on unset or parse error).
/// A value that does not parse prints one stderr line per process, as every
/// knob below does for a value it does not understand:
/// "paragraph: NAME=VALUE is not an integer; using FALLBACK".
std::int64_t env_int(const char* name, std::int64_t fallback);

/// Worker-thread override: `PARAGRAPH_THREADS` as a positive integer, or 0
/// when unset/invalid — 0 means "keep the OpenMP default". Consumers (the
/// CLI's predict/corpus subcommands) pass a positive value to
/// omp_set_num_threads before building engines or datasets.
std::int64_t env_thread_count();

/// Upper bound env_chunk_size clamps to (one fused block-diagonal batch of
/// this many graphs is already far past the fusion sweet spot).
inline constexpr std::size_t kMaxChunkSize = 4096;

/// Fused-batch chunk override: `PARAGRAPH_CHUNK` as a positive integer,
/// clamped to [1, kMaxChunkSize]. nullopt when unset, zero, negative, or
/// unparsable — i.e. "no override, let the engine pick". The single source
/// of truth for the override/adaptive split (the engine reads it once).
std::optional<std::size_t> env_chunk_override();

/// env_chunk_override() with a fallback for the no-override case. Lets
/// bench sweeps vary the InferenceEngine fusion width without recompiling.
std::size_t env_chunk_size(std::size_t fallback);

/// Engine chunk-scheduling policy. kCost (the default) balances chunks by a
/// per-graph node/edge cost model; kFixed reproduces the legacy fixed-width
/// cut (and is implied by a PARAGRAPH_CHUNK override, which pins the width).
enum class SchedPolicy { kCost, kFixed };

/// `PARAGRAPH_SCHED` = "cost" | "fixed"; unset or unrecognised -> kCost
/// (an unrecognised value is reported on stderr).
SchedPolicy sched_policy_from_env();

/// Human-readable name of a policy value ("cost"/"fixed").
const char* to_string(SchedPolicy policy);

/// Dataset scale selector: `PARAGRAPH_SCALE` = "smoke" | "default" | "full".
/// Controls how many sweep points the dataset generator emits; see
/// `dataset::SweepScale`. An unrecognised value runs kDefault and is
/// reported on stderr.
enum class RunScale { kSmoke, kDefault, kFull };

RunScale run_scale_from_env();

/// Human-readable name of a scale value ("smoke"/"default"/"full").
const char* to_string(RunScale scale);

}  // namespace pg
