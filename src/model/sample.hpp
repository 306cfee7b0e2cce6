// Model-facing training sample and sample-set containers.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "model/encoding.hpp"
#include "nn/scaler.hpp"

namespace pg::model {

struct TrainingSample {
  EncodedGraph graph;
  std::array<float, 2> aux{};   // MinMax-scaled {num_teams, num_threads}
  double target_scaled = 0.0;   // MinMax-scaled runtime
  double runtime_us = 0.0;      // ground-truth runtime in microseconds
  std::int32_t app_id = -1;
  std::string app_name;
  std::string variant;
};

/// A train/validation split plus the scalers shared by both halves.
struct SampleSet {
  std::vector<TrainingSample> train;
  std::vector<TrainingSample> validation;
  nn::MinMaxScaler target_scaler;    // runtime_us <-> scaled target
  nn::MinMaxScaler teams_scaler;
  nn::MinMaxScaler threads_scaler;
  double child_weight_scale = 1.0;   // dataset-global max Child weight
  /// When true, the target scaler operates on log(runtime_us) — an
  /// extension beyond the paper that trades absolute-RMSE optimality for
  /// relative accuracy (useful for variant *ranking*; see
  /// bench_advisor_selection).
  bool log_target = false;

  /// runtime in microseconds -> scaled training target.
  [[nodiscard]] double to_target(double runtime_us) const {
    return target_scaler.transform(log_target ? std::log(std::max(runtime_us, 1e-3))
                                              : runtime_us);
  }
  /// The MinMax-scaled {num_teams, num_threads} pair a sample carries as
  /// its aux input.
  [[nodiscard]] std::array<float, 2> aux_for(std::int64_t num_teams,
                                             std::int64_t num_threads) const {
    return {static_cast<float>(teams_scaler.transform(static_cast<double>(num_teams))),
            static_cast<float>(
                threads_scaler.transform(static_cast<double>(num_threads)))};
  }
  /// scaled model output -> runtime in microseconds (clamped at 0).
  [[nodiscard]] double from_target(double scaled) const {
    const double raw = target_scaler.inverse(scaled);
    return log_target ? std::exp(raw) : std::max(raw, 0.0);
  }
};

}  // namespace pg::model
