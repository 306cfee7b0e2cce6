// Binary checkpoint format: tagged sections of u64/f64 for every parameter
// matrix plus the fitted scalers. All multi-byte values are explicit
// little-endian (assembled by shifts, like the pg::io container formats),
// so checkpoints are portable across hosts.
#include "model/checkpoint.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "support/check.hpp"

namespace pg::model {
namespace {

constexpr char kMagic[8] = {'P', 'G', 'C', 'K', 'P', 'T', '0', '2'};

void write_u64(std::ostream& os, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  os.write(b, sizeof b);
}

std::uint64_t read_u64(std::istream& is) {
  unsigned char b[8];
  is.read(reinterpret_cast<char*>(b), sizeof b);
  check(static_cast<bool>(is), "checkpoint truncated");
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
  return v;
}

void write_f64(std::ostream& os, double v) {
  write_u64(os, std::bit_cast<std::uint64_t>(v));
}

double read_f64(std::istream& is) {
  return std::bit_cast<double>(read_u64(is));
}

void write_f32(std::ostream& os, float v) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(bits >> (8 * i));
  os.write(b, sizeof b);
}

float read_f32(std::istream& is) {
  unsigned char b[4];
  is.read(reinterpret_cast<char*>(b), sizeof b);
  check(static_cast<bool>(is), "checkpoint truncated");
  std::uint32_t bits = 0;
  for (int i = 3; i >= 0; --i) bits = (bits << 8) | b[i];
  return std::bit_cast<float>(bits);
}

void write_scaler(std::ostream& os, const nn::MinMaxScaler& scaler) {
  write_f64(os, scaler.min_value());
  write_f64(os, scaler.max_value());
}

nn::MinMaxScaler read_scaler(std::istream& is) {
  const double lo = read_f64(is);
  const double hi = read_f64(is);
  nn::MinMaxScaler scaler;
  scaler.fit_bounds(lo, hi);
  return scaler;
}

}  // namespace

void save_checkpoint(std::ostream& os, const ParaGraphModel& model,
                     const CheckpointScalers& scalers) {
  os.write(kMagic, sizeof kMagic);
  const auto params = model.parameters();
  write_u64(os, params.size());
  for (const tensor::Matrix* p : params) {
    write_u64(os, p->rows());
    write_u64(os, p->cols());
    for (const float v : p->data()) write_f32(os, v);
  }
  write_scaler(os, scalers.target);
  write_scaler(os, scalers.teams);
  write_scaler(os, scalers.threads);
  write_f64(os, scalers.child_weight_scale);
  const char log_target = scalers.log_target ? 1 : 0;
  os.write(&log_target, 1);
  check(static_cast<bool>(os), "checkpoint write failed");
}

CheckpointScalers load_checkpoint(std::istream& is, ParaGraphModel& model) {
  char magic[8];
  is.read(magic, sizeof magic);
  check(static_cast<bool>(is) && std::memcmp(magic, kMagic, sizeof kMagic) == 0,
        "not a ParaGraph checkpoint");
  const auto params = model.parameters();
  const std::uint64_t count = read_u64(is);
  check(count == params.size(), "checkpoint parameter count mismatch");
  for (tensor::Matrix* p : params) {
    const std::uint64_t rows = read_u64(is);
    const std::uint64_t cols = read_u64(is);
    check(rows == p->rows() && cols == p->cols(),
          "checkpoint parameter shape mismatch (different model config?)");
    for (float& v : p->data()) v = read_f32(is);
  }
  CheckpointScalers scalers;
  scalers.target = read_scaler(is);
  scalers.teams = read_scaler(is);
  scalers.threads = read_scaler(is);
  scalers.child_weight_scale = read_f64(is);
  char log_target = 0;
  is.read(&log_target, 1);
  check(static_cast<bool>(is), "checkpoint truncated");
  scalers.log_target = log_target != 0;
  return scalers;
}

void save_checkpoint_file(const std::string& path, const ParaGraphModel& model,
                          const CheckpointScalers& scalers) {
  std::ofstream os(path, std::ios::binary);
  check(static_cast<bool>(os), "cannot open checkpoint file for writing");
  save_checkpoint(os, model, scalers);
}

CheckpointScalers load_checkpoint_file(const std::string& path,
                                       ParaGraphModel& model) {
  std::ifstream is(path, std::ios::binary);
  check(static_cast<bool>(is), "cannot open checkpoint file");
  return load_checkpoint(is, model);
}

}  // namespace pg::model
