// RawDataPoint -> model::Sample: re-parse each point's source, build its
// graph at the requested representation, encode, and split train/validation.
#include "dataset/sample_builder.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "frontend/parser.hpp"
#include "model/encoding.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pg::dataset {
namespace {

std::int64_t parallel_workers_for(const RawDataPoint& point) {
  const bool gpu = point.variant.starts_with("gpu");
  return gpu ? point.num_teams * point.num_threads : point.num_threads;
}

}  // namespace

graph::BuildOptions point_build_options(const RawDataPoint& point,
                                        graph::Representation representation,
                                        std::int64_t unknown_trip_fallback) {
  graph::BuildOptions options;
  options.representation = representation;
  options.parallel_workers = std::max<std::int64_t>(1, parallel_workers_for(point));
  options.unknown_trip_fallback = unknown_trip_fallback;
  return options;
}

graph::ProgramGraph build_point_graph(const RawDataPoint& point,
                                      graph::Representation representation,
                                      std::int64_t unknown_trip_fallback) {
  const frontend::ParseResult parsed = frontend::parse_source(point.source);
  check(parsed.ok(), "build_point_graph: source failed to parse");
  return graph::build_graph(
      parsed.root(),
      point_build_options(point, representation, unknown_trip_fallback));
}

model::TrainingSample make_training_sample(const graph::ProgramGraph& graph,
                                           const model::SampleSet& scalers,
                                           std::int64_t num_teams,
                                           std::int64_t num_threads,
                                           double runtime_us,
                                           std::int32_t app_id,
                                           std::string app_name,
                                           std::string variant) {
  model::TrainingSample sample;
  sample.graph = model::encode_graph(graph, scalers.child_weight_scale);
  sample.aux = scalers.aux_for(num_teams, num_threads);
  sample.target_scaled = scalers.to_target(runtime_us);
  sample.runtime_us = runtime_us;
  sample.app_id = app_id;
  sample.app_name = std::move(app_name);
  sample.variant = std::move(variant);
  return sample;
}

model::SampleSet build_sample_set(const std::vector<RawDataPoint>& points,
                                  const SampleBuildConfig& config) {
  check(!points.empty(), "build_sample_set: empty dataset");
  check(config.validation_fraction > 0.0 && config.validation_fraction < 1.0,
        "bad validation fraction");

  // Deterministic shuffled split.
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), 0);
  pg::Rng rng(config.split_seed);
  rng.shuffle(order);
  const std::size_t val_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(points.size()) *
                                  config.validation_fraction));
  const std::size_t train_count = points.size() - val_count;

  // Build all graphs in parallel (the expensive part: one parse per point).
  std::vector<graph::ProgramGraph> graphs(points.size());
#pragma omp parallel for schedule(dynamic, 8)
  for (std::size_t i = 0; i < points.size(); ++i)
    graphs[i] = build_point_graph(points[i], config.representation,
                                  config.unknown_trip_fallback);

  model::SampleSet set;

  // Scalers are fit on the *training* split only.
  double max_child_weight = 0.0;
  std::vector<double> train_runtimes, train_teams, train_threads;
  train_runtimes.reserve(train_count);
  for (std::size_t k = 0; k < train_count; ++k) {
    const std::size_t i = order[k];
    max_child_weight = std::max(
        max_child_weight, static_cast<double>(graphs[i].max_child_weight()));
    train_runtimes.push_back(points[i].runtime_us);
    train_teams.push_back(static_cast<double>(points[i].num_teams));
    train_threads.push_back(static_cast<double>(points[i].num_threads));
  }
  set.child_weight_scale = std::max(max_child_weight, 1.0);
  set.log_target = config.log_target;
  if (config.log_target)
    for (double& r : train_runtimes) r = std::log(std::max(r, 1e-3));
  set.target_scaler.fit(train_runtimes);
  set.teams_scaler.fit(train_teams);
  set.threads_scaler.fit(train_threads);

  auto make_sample = [&](std::size_t i) {
    const RawDataPoint& p = points[i];
    return make_training_sample(graphs[i], set, p.num_teams, p.num_threads,
                                p.runtime_us, p.app_id, p.app, p.variant);
  };

  set.train.reserve(train_count);
  set.validation.reserve(val_count);
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k < train_count) set.train.push_back(make_sample(order[k]));
    else set.validation.push_back(make_sample(order[k]));
  }
  return set;
}

}  // namespace pg::dataset
