// Load-from-corpus path for examples/benches: sample sets are cached as
// pg::io .pgds files keyed by (platform, scale, representation, seed,
// log-target). The first run pays for parse+graph+encode over the whole
// sweep and writes the corpus; every later run loads the finished tensors
// off disk through the checksummed io::DatasetView instead of regenerating
// them. Because the .pgds round trip is
// byte-exact down to feature bits, a cached run trains/predicts bitwise
// identically to a regenerated one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/sample_builder.hpp"
#include "support/env.hpp"

namespace pg::dataset {

/// Everything that determines a cached sample set's contents.
struct CorpusKey {
  std::string platform_name;  // sim::Platform::name (slugged for the filename)
  RunScale scale = RunScale::kDefault;
  graph::Representation representation = graph::Representation::kParaGraph;
  std::uint64_t seed = 2024;
  bool log_target = false;
};

/// Content fingerprint of a generated dataset (FNV-1a over every point's
/// identity and runtime bits). Folded into the cache filename so *any*
/// change that alters the sweep — generator logic, simulator retuning,
/// kernel-spec edits — lands on a different cache file and forces a rebuild
/// instead of silently serving stale tensors.
std::uint64_t points_fingerprint(const std::vector<RawDataPoint>& points);

/// The cache file for a key inside `dir` (e.g. "corpus/nvidia-v100-gpu-smoke-
/// paragraph-seed2024-log-fp1a2b3c4d.pgds").
std::string corpus_cache_path(const std::string& dir, const CorpusKey& key,
                              std::uint64_t fingerprint);

/// When `dir` is non-empty and the cache file exists with matching
/// provenance, loads the sample set from it; otherwise builds the set from
/// `points` via build_sample_set and (when `dir` is non-empty) writes the
/// cache for next time. A cache file that fails to load — a record whose
/// body no longer matches its index checksum included — is rebuilt the
/// same way. `config.representation`/`log_target` must agree with
/// the key — the key (plus the points fingerprint) is what names the file.
model::SampleSet load_or_build_sample_set(const std::string& dir,
                                          const CorpusKey& key,
                                          const std::vector<RawDataPoint>& points,
                                          const SampleBuildConfig& config);

}  // namespace pg::dataset
