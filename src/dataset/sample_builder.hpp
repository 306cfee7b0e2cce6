// RawDataPoint -> model::SampleSet: re-parse sources, build graphs at the
// requested representation level, encode tensors, scale features/targets,
// and split train/validation 9:1 (paper §IV-B).
#pragma once

#include <vector>

#include "dataset/generator.hpp"
#include "graph/builder.hpp"
#include "model/sample.hpp"

namespace pg::dataset {

struct SampleBuildConfig {
  graph::Representation representation = graph::Representation::kParaGraph;
  double validation_fraction = 0.1;  // paper: 9:1 split
  std::uint64_t split_seed = 13;
  std::int64_t unknown_trip_fallback = 100;
  /// Train on MinMax-scaled log(runtime) instead of raw runtime (extension;
  /// see model::SampleSet::log_target).
  bool log_target = false;
};

/// Builds the train/validation sample set for one platform's dataset.
/// Scalers (target, teams, threads, edge weights) are fit on the training
/// split only and applied to both splits.
model::SampleSet build_sample_set(const std::vector<RawDataPoint>& points,
                                  const SampleBuildConfig& config);

/// The options build_point_graph builds one data point's graph with:
/// `parallel_workers` = threads on CPU, teams x threads on GPU — the
/// paper's static-schedule division rule.
graph::BuildOptions point_build_options(const RawDataPoint& point,
                                        graph::Representation representation,
                                        std::int64_t unknown_trip_fallback = 100);

/// Parses one data point's source and builds its graph at the given
/// representation level (exposed for examples/tests).
graph::ProgramGraph build_point_graph(const RawDataPoint& point,
                                      graph::Representation representation,
                                      std::int64_t unknown_trip_fallback = 100);

/// Encodes one scaled TrainingSample from an already-built graph. This is
/// THE canonical encode recipe — build_sample_set and `paragraph-cli
/// encode` both call it, so the on-disk and in-process paths cannot drift
/// (cli_test asserts the resulting bytes are identical). `scalers` supplies
/// the fitted teams/threads/target scalers, the child-weight scale, and the
/// target transform.
model::TrainingSample make_training_sample(const graph::ProgramGraph& graph,
                                           const model::SampleSet& scalers,
                                           std::int64_t num_teams,
                                           std::int64_t num_threads,
                                           double runtime_us,
                                           std::int32_t app_id,
                                           std::string app_name,
                                           std::string variant);

}  // namespace pg::dataset
