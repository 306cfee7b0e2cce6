// Mini-batch trainer: Adam + MSE over fused GraphBatch chunks. Each batch
// is split into contiguous cost-balanced chunks (model/schedule.hpp; a pure
// function of the batch, never of the OpenMP thread count); every chunk runs
// one fused block-diagonal forward/backward into its own gradient buffer,
// and the buffers are reduced in chunk order. Training is therefore bitwise-reproducible across
// machines and thread counts.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "model/paragraph_model.hpp"
#include "model/sample.hpp"
#include "model/sample_store.hpp"
#include "nn/adam.hpp"

namespace pg::model {

struct TrainConfig {
  int epochs = 60;
  int batch_size = 32;
  double learning_rate = 1e-3;
  std::uint64_t shuffle_seed = 7;
  /// Called after every epoch when set (used by the Fig. 5/7 benches).
  std::function<void(int epoch, double train_mse, double val_rmse_us)> on_epoch;
};

struct EpochRecord {
  int epoch = 0;
  double train_mse_scaled = 0.0;  // mean MSE on the scaled target
  double val_rmse_us = 0.0;       // validation RMSE in microseconds
  double val_norm_rmse = 0.0;     // RMSE / range(actual)
};

struct TrainResult {
  std::vector<EpochRecord> history;
  std::vector<double> val_predictions_us;  // final, aligned with set.validation
  double final_rmse_us = 0.0;
  double final_norm_rmse = 0.0;
};

/// Predictions (in microseconds) for a sample list; a thin wrapper over a
/// one-shot InferenceEngine — fused-batch with per-thread workspaces,
/// clamped at the physical floor (0), and honouring the set's target
/// transform (linear or log). Callers predicting repeatedly should hold
/// their own engine so its workspace pool stays warm.
std::vector<double> predict_all(const ParaGraphModel& model,
                                const std::vector<TrainingSample>& samples,
                                const SampleSet& set);

TrainResult train_model(ParaGraphModel& model, const SampleSet& set,
                        const TrainConfig& config);

/// Out-of-core streaming trainer configuration. `window` bounds how many
/// decoded training samples are resident at once; it is rounded down to a
/// whole number of batches (minimum one batch) so batch boundaries coincide
/// exactly with the in-RAM trainer's.
struct StreamTrainConfig {
  TrainConfig base;
  std::size_t window = 4096;
  /// Worker count for the parallel window fills and the cost prepass;
  /// 0 = the OpenMP default. Loading is pure (SampleStore::load is
  /// deterministic), so this knob never changes the trained model.
  int load_threads = 0;
};

/// Trains by streaming epochs through a bounded window of samples decoded
/// on demand from `train_store` (e.g. an mmap-backed io::DatasetSampleStore)
/// instead of holding the corpus in RAM. `holdout` supplies the fitted
/// scalers and the (in-RAM) validation samples for per-epoch evaluation.
///
/// Determinism contract: the shuffled index order, batch boundaries, chunk
/// partition, and every FP operation are identical to train_model over the
/// same samples/seed — for *any* window size — so the resulting model is
/// bitwise-equal to the in-RAM trainer's, independent of window, thread
/// count, and run-to-run.
TrainResult train_model_streaming(ParaGraphModel& model,
                                  const SampleStore& train_store,
                                  const SampleSet& holdout,
                                  const StreamTrainConfig& config);

}  // namespace pg::model
