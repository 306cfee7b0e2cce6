// Mini-batch trainer: Adam + MSE over fused GraphBatch chunks. Each batch
// is split into contiguous cost-balanced chunks (model/schedule.hpp; a pure
// function of the batch, never of the OpenMP thread count); every chunk runs
// one fused block-diagonal forward/backward into its own gradient buffer,
// and the buffers are reduced in chunk order. Training is therefore
// bitwise-reproducible across machines and thread counts.
//
// There is one epoch loop, train_model_streaming, which pulls samples from a
// SampleStore through a bounded window. train_model is that loop over a
// VectorSampleStore of the set's own samples with one window spanning the
// corpus, so in-RAM training copies no sample.
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

/// Trains on set.train and evaluates on set.validation after every epoch:
/// train_model_streaming over a VectorSampleStore(set.train) with a window
/// that covers the whole corpus.
TrainResult train_model(ParaGraphModel& model, const SampleSet& set,
                        const TrainConfig& config);

/// Training-loop configuration. `window` bounds how many samples a store
/// must keep decoded at once; it is rounded down to a whole number of
/// batches (minimum one batch) so batch boundaries never depend on it.
struct StreamTrainConfig {
  TrainConfig base;
  std::size_t window = 4096;
};

/// The training loop. Streams epochs through a bounded window of samples
/// fetched from `train_store` — decoded on demand from an mmap-backed
/// io::DatasetSampleStore, or handed out in place by a VectorSampleStore.
/// `holdout` supplies the fitted scalers and the (in-RAM) validation
/// samples for per-epoch evaluation. Window fills and the cost prepass run
/// on the OpenMP default team.
///
/// Determinism contract: the shuffled index order, batch boundaries, chunk
/// partition, and every FP operation depend only on the samples, their
/// order in the store and the seed — never on the window size, the store's
/// backing or the thread count — so training the same samples from a
/// .pgds file or from RAM gives a bitwise-equal model, run to run.
TrainResult train_model_streaming(ParaGraphModel& model,
                                  const SampleStore& train_store,
                                  const SampleSet& holdout,
                                  const StreamTrainConfig& config);

}  // namespace pg::model
