// Positional Matrix arena: acquire/reset over grow-only, reshaped slots.
#include "tensor/workspace.hpp"

namespace pg::tensor {

Matrix& Workspace::acquire(std::size_t rows, std::size_t cols) {
  Matrix& m = acquire_uninit(rows, cols);
  m.zero();
  return m;
}

Matrix& Workspace::acquire_uninit(std::size_t rows, std::size_t cols) {
  ++num_acquires_;
  const std::size_t floats = rows * cols;
  if (next_ == slots_.size()) {
    slots_.emplace_back(rows, cols);
    high_water_.push_back(floats);
    bytes_reserved_ += floats * sizeof(float);
    return slots_[next_++];
  }
  if (floats > high_water_[next_]) {
    bytes_reserved_ += (floats - high_water_[next_]) * sizeof(float);
    high_water_[next_] = floats;
  }
  Matrix& m = slots_[next_++];
  m.reshape(rows, cols);
  return m;
}

}  // namespace pg::tensor
