// Mini-batch Adam/MSE training loop over fused GraphBatch chunks.
//
// Determinism: each batch is split into contiguous chunks whose boundaries
// are a pure function of the batch's per-sample costs (model/schedule.hpp)
// — never of the thread count or schedule. A chunk packs its samples into
// one block-diagonal GraphBatch and accumulates the summed gradient with a
// single fused forward/backward — a fixed, serial FP order. Chunks run in
// parallel (they are independent), and the per-chunk buffers are then
// reduced in chunk order on one thread. No step depends on the OpenMP
// thread count, so training is bitwise-reproducible across machines. (The
// pre-CSR trainer accumulated per *thread*, which was only reproducible
// for a fixed thread count; the pre-cost trainer pinned 16 chunks, which
// wasted cores on small batches and unbalanced skewed ones.)
#include "model/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "model/engine.hpp"
#include "model/graph_batch.hpp"
#include "model/schedule.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace pg::model {
namespace {

/// Gradient chunks aim at this cost per chunk (nodes + 2*edges + overhead
/// per sample): small enough that even a modest batch splits into several
/// independent fused passes, large enough that a chunk amortises its pack.
/// Part of the training recipe — with the hard cap below, the chunking
/// (and thus the FP reduction order) is the same whether the run uses 1
/// thread or 64.
constexpr std::uint64_t kGradChunkCostTarget = 512;

/// Hard ceiling on chunks per batch: bounds the per-chunk gradient-buffer
/// memory (each chunk holds a full parameter-shaped accumulator).
constexpr std::size_t kMaxGradChunks = 64;

double evaluate_rmse_us(InferenceEngine& engine,
                        const std::vector<TrainingSample>& samples,
                        const SampleSet& set,
                        std::vector<double>* predictions_out) {
  if (samples.empty()) return 0.0;
  std::vector<double> predictions = engine.predict_samples_us(samples, set);
  std::vector<double> actual(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) actual[i] = samples[i].runtime_us;
  const double rmse = stats::rmse(actual, predictions);
  if (predictions_out != nullptr) *predictions_out = std::move(predictions);
  return rmse;
}

/// Everything one gradient chunk reuses across steps — all grow-only, so
/// steady-state training does no per-batch heap work. Shuffling re-composes
/// every chunk each step; the positional Workspace absorbs that by
/// reshaping its slots, so its footprint is bounded by the largest chunk.
struct ChunkState {
  std::vector<tensor::Matrix> grads;
  tensor::Workspace ws;
  GraphBatch batch;
  tensor::Matrix aux;                     // [chunk x 2]
  std::vector<const EncodedGraph*> graphs;
  std::vector<double> targets;
};

/// The optimisation core of the training loop: one call is one mini-batch
/// step — cost-balanced chunk partition, parallel fused chunk gradients,
/// ordered reduction, one Adam update. Every FP operation is a pure
/// function of the batch's samples and costs (never of where the samples
/// live or how many threads run), which is what makes the trained model
/// independent of the store, the window size and the thread count.
class BatchStepper {
 public:
  BatchStepper(ParaGraphModel& model, const nn::AdamConfig& adam_config)
      : model_(model), adam_(model.parameters(), adam_config) {}

  /// Runs one step over `samples` (with per-sample `costs` aligned to it)
  /// and folds the batch's chunk losses into `epoch_loss` in chunk order —
  /// the exact accumulation grouping the pre-refactor loop used.
  void step(const std::vector<const TrainingSample*>& samples,
            const std::vector<std::uint64_t>& costs, double& epoch_loss) {
    const std::size_t len = samples.size();
    const double grad_scale = 1.0 / static_cast<double>(len);

    // Cost-balanced chunk boundaries, a pure function of the batch's
    // sample costs: identical on every machine, whatever omp does with the
    // loop below. Doubling the target on cap overflow is deterministic too
    // (it depends only on the same costs).
    std::uint64_t batch_cost = 0;
    for (const std::uint64_t c : costs) batch_cost += c;
    std::uint64_t target = std::max(
        kGradChunkCostTarget, (batch_cost + kMaxGradChunks - 1) / kMaxGradChunks);
    schedule::partition_by_cost(costs, target, len, bounds_);
    while (bounds_.size() - 1 > kMaxGradChunks) {
      target *= 2;
      schedule::partition_by_cost(costs, target, len, bounds_);
    }
    const std::size_t num_chunks = bounds_.size() - 1;
    while (chunks_.size() < num_chunks) {
      chunks_.emplace_back();
      chunks_.back().grads = adam_.make_gradient_buffer();
    }

    chunk_loss_.assign(num_chunks, 0.0);
#pragma omp parallel for schedule(dynamic, 1)
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::size_t lo = bounds_[c];
      const std::size_t hi = bounds_[c + 1];
      ChunkState& chunk = chunks_[c];
      chunk.graphs.clear();
      chunk.targets.clear();
      chunk.aux.reshape(hi - lo, 2);
      for (std::size_t i = lo; i < hi; ++i) {
        const TrainingSample& sample = *samples[i];
        chunk.graphs.push_back(&sample.graph);
        chunk.targets.push_back(sample.target_scaled);
        auto row = chunk.aux.row_span(i - lo);
        row[0] = sample.aux[0];
        row[1] = sample.aux[1];
      }
      chunk.batch.pack(chunk.graphs);
      chunk_loss_[c] = model_.accumulate_gradients_batch(
          chunk.batch, chunk.aux, chunk.targets, grad_scale, chunk.grads,
          chunk.ws);
    }

    // Ordered reduction: chunk 0 hosts the sum; losses and gradient
    // buffers are folded in ascending chunk index.
    auto& base = chunks_[0].grads;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      epoch_loss += chunk_loss_[c];
      if (c > 0)
        for (std::size_t p = 0; p < base.size(); ++p)
          base[p].add_(chunks_[c].grads[p]);
    }
    adam_.step(base);
    for (std::size_t c = 0; c < num_chunks; ++c)
      for (auto& grad : chunks_[c].grads) grad.zero();
  }

 private:
  ParaGraphModel& model_;
  nn::Adam adam_;
  std::vector<ChunkState> chunks_;   // grown on demand, like before
  std::vector<std::uint32_t> bounds_;
  std::vector<double> chunk_loss_;
};

}  // namespace

std::vector<double> predict_all(const ParaGraphModel& model,
                                const std::vector<TrainingSample>& samples,
                                const SampleSet& set) {
  InferenceEngine engine(model);
  return engine.predict_samples_us(samples, set);
}

TrainResult train_model(ParaGraphModel& model, const SampleSet& set,
                        const TrainConfig& config) {
  // The streaming loop with one window over the set's own samples:
  // VectorSampleStore hands them out in place, so nothing is copied.
  const VectorSampleStore store(set.train);
  return train_model_streaming(
      model, store, set,
      StreamTrainConfig{config, std::numeric_limits<std::size_t>::max()});
}

TrainResult train_model_streaming(ParaGraphModel& model,
                                  const SampleStore& train_store,
                                  const SampleSet& holdout,
                                  const StreamTrainConfig& config) {
  const TrainConfig& base = config.base;
  const std::size_t n = train_store.size();
  check(n > 0, "train_model: empty training set");
  check(base.batch_size > 0 && base.epochs > 0, "train_model: bad config");

  const auto batch = static_cast<std::size_t>(base.batch_size);
  // Round the window down to whole batches (minimum one batch): batch
  // boundaries then fall every `batch` positions of the shuffled order
  // whatever the window, and since one step only ever sees its own batch,
  // the trained model is bitwise the same at every window size.
  std::size_t window = std::max(config.window, batch);
  window -= window % batch;

  nn::AdamConfig adam_config;
  adam_config.learning_rate = base.learning_rate;
  BatchStepper stepper(model, adam_config);
  InferenceEngine eval_engine(model);

  // Prepass: one parallel sweep fetches each sample once for the two
  // whole-corpus facts the loop needs — the schedule cost (chunk
  // partitioning) and the runtime range (RMSE normalisation). Decoded
  // samples are dropped immediately; only two scalars per record stay
  // resident.
  std::vector<std::uint64_t> sample_cost(n);
  std::vector<double> runtime_us(n);
  {
    LoopFailures failures;
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < n; ++i)
      failures.run(i, [&] {
        TrainingSample scratch;
        const TrainingSample& sample = train_store.get(i, scratch);
        sample_cost[i] = schedule::graph_cost(sample.graph);
        runtime_us[i] = sample.runtime_us;
      });
    failures.rethrow();
  }
  // Normalisation range over the *runtime* domain (the scaler may be in
  // log space when holdout.log_target is on).
  const auto [min_runtime, max_runtime] =
      std::minmax_element(runtime_us.begin(), runtime_us.end());
  const double actual_range = *max_runtime - *min_runtime;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  pg::Rng shuffle_rng(base.shuffle_seed);

  // One scratch slot per window position; window_samples[k] points at
  // that slot or at the store's own sample.
  std::vector<TrainingSample> scratch(std::min(window, n));
  std::vector<const TrainingSample*> window_samples(scratch.size());
  std::vector<const TrainingSample*> batch_samples;
  std::vector<std::uint64_t> batch_costs;

  TrainResult result;
  result.history.reserve(base.epochs);

  for (int epoch = 1; epoch <= base.epochs; ++epoch) {
    shuffle_rng.shuffle(order);
    double epoch_loss = 0.0;

    for (std::size_t seg_lo = 0; seg_lo < n;) {
      const std::size_t seg_hi = seg_lo + std::min(window, n - seg_lo);
      // Fill the window: workers fetch disjoint shards of the shuffled
      // order into fixed slots. get() is deterministic, so the window
      // contents — and everything downstream — are thread-independent.
      LoopFailures failures;
#pragma omp parallel for schedule(static)
      for (std::size_t j = seg_lo; j < seg_hi; ++j)
        failures.run(j, [&] {
          window_samples[j - seg_lo] =
              &train_store.get(order[j], scratch[j - seg_lo]);
        });
      failures.rethrow();

      for (std::size_t start = seg_lo; start < seg_hi; start += batch) {
        const std::size_t end = std::min(seg_hi, start + batch);
        batch_samples.clear();
        batch_costs.clear();
        for (std::size_t i = start; i < end; ++i) {
          batch_samples.push_back(window_samples[i - seg_lo]);
          batch_costs.push_back(sample_cost[order[i]]);
        }
        stepper.step(batch_samples, batch_costs, epoch_loss);
      }
      seg_lo = seg_hi;
    }

    EpochRecord record;
    record.epoch = epoch;
    record.train_mse_scaled = epoch_loss / static_cast<double>(n);
    const bool last_epoch = (epoch == base.epochs);
    record.val_rmse_us = evaluate_rmse_us(
        eval_engine, holdout.validation, holdout,
        last_epoch ? &result.val_predictions_us : nullptr);
    record.val_norm_rmse =
        actual_range > 0.0 ? record.val_rmse_us / actual_range : 0.0;
    result.history.push_back(record);
    if (base.on_epoch)
      base.on_epoch(epoch, record.train_mse_scaled, record.val_rmse_us);
  }

  result.final_rmse_us = result.history.back().val_rmse_us;
  result.final_norm_rmse = result.history.back().val_norm_rmse;
  return result;
}

}  // namespace pg::model
