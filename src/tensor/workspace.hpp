// Grow-only positional arena of Matrix buffers — the allocation-free
// substrate under every forward/backward pass.
//
// Usage contract:
//   * acquire(r, c) hands out a zero-filled r x c Matrix, distinct from every
//     other matrix acquired since the last reset(). References stay valid
//     until the *owning Workspace* is destroyed (reset() only rewinds the
//     cursor; it never frees a slot).
//   * Slots are positional: the i-th acquire after a reset() gets slot i,
//     reshaped to the requested shape with its capacity kept. A pass with a
//     fixed acquisition sequence — every forward/backward here — therefore
//     reuses the same slots whatever its shapes, so a stream of ever-new
//     shapes (the trainer's reshuffled chunks, a daemon's mixed batches)
//     settles at the largest footprint per slot instead of accreting one
//     buffer per shape seen.
//   * reset() starts a new borrow generation. A repeated identical pass
//     touches the exact same memory — bitwise-deterministic and, once every
//     slot has held its largest shape, free of heap allocations.
//   * The arena never shrinks. num_slots()/bytes_reserved() expose growth so
//     callers (and tests) can assert a hot loop has reached steady state.
//
// Not thread-safe: one Workspace per thread (the trainer and the
// InferenceEngine each own a per-thread pool).
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "tensor/matrix.hpp"

namespace pg::tensor {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// Borrows a zero-filled rows x cols matrix until the next reset().
  Matrix& acquire(std::size_t rows, std::size_t cols);

  /// Like acquire(), but the slot keeps its stale contents — for
  /// destinations every element of which is written before being read
  /// (matmul_into / relu_into style); skips the hot-path memset that
  /// acquire() would spend on them, also when the slot grows back within
  /// its capacity.
  Matrix& acquire_uninit(std::size_t rows, std::size_t cols);

  /// Returns every borrowed matrix to the pool; capacity is retained.
  void reset() { next_ = 0; }

  /// Total slots ever created (== growth events in slot count).
  [[nodiscard]] std::size_t num_slots() const { return slots_.size(); }
  /// Float storage held by the arena, in bytes: the sum over slots of the
  /// largest shape each has held (flat once warmed up).
  [[nodiscard]] std::size_t bytes_reserved() const { return bytes_reserved_; }
  /// acquire() calls over the workspace's lifetime.
  [[nodiscard]] std::size_t num_acquires() const { return num_acquires_; }

 private:
  std::deque<Matrix> slots_;             // deque: growth never moves a slot
  std::vector<std::size_t> high_water_;  // largest element count per slot
  std::size_t next_ = 0;
  std::size_t bytes_reserved_ = 0;
  std::size_t num_acquires_ = 0;
};

}  // namespace pg::tensor
