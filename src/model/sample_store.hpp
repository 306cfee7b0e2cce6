// SampleStore: the trainer-facing abstraction over "where training samples
// live". The one training loop (train_model_streaming; train_model runs it
// over a VectorSampleStore with a window covering the whole corpus) pulls
// samples by index through this interface, so it neither knows nor cares
// whether the corpus is a vector in RAM (VectorSampleStore, which hands out
// its own elements — training copies no in-RAM sample) or an mmap-backed
// .pgds decoded on demand into a scratch slot (io::DatasetSampleStore in
// src/io/dataset_view.hpp — the io layer depends on model, not the other
// way around, so the adapter lives there).
#pragma once

#include <cstddef>

#include "model/sample.hpp"
#include "support/check.hpp"

namespace pg::model {

/// Random-access source of training samples. Implementations must make
/// get() safe to call concurrently from multiple threads (the trainer fills
/// its window in parallel, each slot with its own scratch) and
/// deterministic: get(i) yields the same sample every time, whatever the
/// calling thread or order.
class SampleStore {
 public:
  virtual ~SampleStore() = default;

  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Sample `i`: either a sample the store already holds, or `scratch`
  /// after decoding sample `i` into it. The reference stays valid while
  /// the store and `scratch` live and `scratch` is not reused.
  /// Thread-safe, deterministic.
  [[nodiscard]] virtual const TrainingSample& get(
      std::size_t i, TrainingSample& scratch) const = 0;
};

/// In-RAM store over an existing sample vector (borrowed; must outlive the
/// store). get() returns the vector's own element and never touches
/// `scratch`.
class VectorSampleStore final : public SampleStore {
 public:
  explicit VectorSampleStore(const std::vector<TrainingSample>& samples)
      : samples_(samples) {}

  [[nodiscard]] std::size_t size() const override { return samples_.size(); }

  [[nodiscard]] const TrainingSample& get(
      std::size_t i, TrainingSample& /*scratch*/) const override {
    check(i < samples_.size(), "SampleStore index out of range");
    return samples_[i];
  }

 private:
  const std::vector<TrainingSample>& samples_;
};

}  // namespace pg::model
