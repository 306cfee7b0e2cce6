// Bitwise parity harness for the runtime-dispatched SIMD kernel layer
// (tensor/simd.hpp): every kernel, run under PARAGRAPH_SIMD=scalar and under
// the best dispatched level this machine supports, must produce BYTE-
// identical outputs — including remainder lanes (n % 8 != 0), empty inputs,
// single-row matrices, and the dense/sparse hybrid paths. Also pins the
// dispatch probe's clean fallback behaviour and end-to-end model/trainer
// parity (predictions and trained checkpoints byte-equal across levels).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "model/encoding.hpp"
#include "model/engine.hpp"
#include "model/trainer.hpp"
#include "nn/adam.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/init.hpp"
#include "tensor/matrix.hpp"
#include "tensor/simd.hpp"

namespace pg::tensor::simd {
namespace {

const KernelTable& scalar_table() { return kernels_for(SimdLevel::kScalar); }
const KernelTable& best_table() { return kernels_for(max_supported_level()); }

/// Restores the process-wide active level when a test that re-selects it
/// (the end-to-end parity tests) finishes.
struct LevelGuard {
  SimdLevel saved = active_level();
  ~LevelGuard() { set_active_level(saved); }
};

/// Random matrix; `sparsity` in [0,1] zeroes that fraction of entries so
/// both sides of the dense/sparse hybrid run.
Matrix random_matrix(std::size_t rows, std::size_t cols, pg::Rng& rng,
                     double sparsity = 0.0) {
  Matrix m(rows, cols);
  uniform_init(m, rng, -2.0f, 2.0f);
  if (sparsity > 0.0)
    for (float& v : m.data())
      if (rng.uniform() < sparsity) v = 0.0f;
  return m;
}

void expect_bytes_equal(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.size() * sizeof(float)),
            0)
      << what;
}

// Shape grid: remainder lanes (not multiples of 4 or 8), the templated
// widths (8/16/24/32), single rows/columns, and a width > any lane count.
constexpr std::array<std::array<std::size_t, 3>, 10> kShapes = {{
    {1, 1, 1},
    {1, 3, 5},
    {2, 7, 8},
    {3, 5, 13},
    {4, 24, 24},
    {5, 32, 16},
    {7, 10, 31},
    {9, 6, 40},
    {6, 17, 32},
    {1, 24, 24},  // single-row matrix on the templated width
}};

TEST(KernelParity, MatmulAllShapesAndDensities) {
  pg::Rng rng(11);
  for (const auto [m, k, n] : kShapes) {
    for (const double sparsity : {0.0, 0.7}) {
      const Matrix a = random_matrix(m, k, rng, sparsity);
      const Matrix b = random_matrix(k, n, rng);
      Matrix c_scalar(m, n, 0.5f);  // pre-filled garbage: must be overwritten
      Matrix c_simd(m, n, -0.5f);
      scalar_table().matmul(a.data().data(), b.data().data(),
                            c_scalar.data().data(), m, k, n, false);
      best_table().matmul(a.data().data(), b.data().data(),
                          c_simd.data().data(), m, k, n, false);
      expect_bytes_equal(c_scalar, c_simd, "matmul");
    }
  }
}

TEST(KernelParity, MatmulTransposeAAccumulate) {
  pg::Rng rng(13);
  for (const auto [k, m, n] : kShapes) {  // k rows of A, m cols, n cols of B
    const Matrix a = random_matrix(k, m, rng, 0.4);
    const Matrix b = random_matrix(k, n, rng);
    Matrix c0 = random_matrix(m, n, rng);  // accumulate on identical bases
    Matrix c1 = c0;
    scalar_table().matmul_t_a_acc(a.data().data(), nullptr, b.data().data(),
                                  c0.data().data(), m, k, n);
    best_table().matmul_t_a_acc(a.data().data(), nullptr, b.data().data(),
                                c1.data().data(), m, k, n);
    expect_bytes_equal(c0, c1, "matmul_t_a_acc");
  }
}

/// Every dispatch level this machine can run (scalar first).
std::vector<SimdLevel> supported_levels() {
  std::vector<SimdLevel> levels;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2})
    if (level_supported(level)) levels.push_back(level);
  return levels;
}

TEST(KernelParity, MatmulTransposeAGatherAccumulateAllLevels) {
  // The RGAT dW_r shape: C += gather(x)^T * dg, where gather picks k of the
  // x rows. Pinned against the reference loop (row-by-row axpy in gather
  // order, zero-skip) at every level; widths cover the templated 8/16/24/32
  // register paths and runtime widths with lane tails. Sparsity 0 and 0.3
  // take the dense register-tile path, 0.9 the sparse one. Column 0 of x is
  // all zero, C starts with a -0.0 in row 0 and B holds an inf: skipped
  // zero terms must leave the -0.0 and never turn 0 * inf into NaN.
  pg::Rng rng(41);
  const std::vector<std::uint32_t> rows = {3, 0, 22, 7, 8, 15, 1, 19, 11};
  const std::size_t k = rows.size();
  for (const double sparsity : {0.0, 0.3, 0.9}) {
    for (const std::size_t n : {8u, 16u, 24u, 32u, 5u, 10u, 27u}) {
      for (const std::size_t m : {1u, 8u, 13u, 48u}) {
        Matrix x = random_matrix(23, m, rng, sparsity);
        for (std::size_t r = 0; r < x.rows(); ++r) x(r, 0) = 0.0f;
        Matrix b = random_matrix(k, n, rng);
        b(2, n - 1) = std::numeric_limits<float>::infinity();
        Matrix base = random_matrix(m, n, rng);
        base(0, 0) = -0.0f;

        Matrix expected = base;
        for (std::size_t kk = 0; kk < k; ++kk)
          for (std::size_t i = 0; i < m; ++i) {
            const float aval = x(rows[kk], i);
            if (aval == 0.0f) continue;
            for (std::size_t j = 0; j < n; ++j)
              expected(i, j) += aval * b(kk, j);
          }
        for (const SimdLevel level : supported_levels()) {
          Matrix c = base;
          kernels_for(level).matmul_t_a_acc(x.data().data(), rows.data(),
                                            b.data().data(), c.data().data(),
                                            m, k, n);
          expect_bytes_equal(expected, c, level_name(level));
        }
      }
    }
  }
}

TEST(KernelParity, MatmulTransposeBDoubleAccumulateAllLevels) {
  // C (+)= A * B^T with per-element double accumulation, fed B transposed.
  // Every level must reproduce the reference sequence exactly: 0.0, then
  // += double(a) * double(b) in kk order, one narrowing, and (scatter
  // variant) one float add onto the indexed row. Output widths cover lane
  // tails on every vector width (1..7 double lanes past the 8-vector tile).
  pg::Rng rng(43);
  for (const std::size_t n : {1u, 3u, 5u, 8u, 13u, 24u, 31u, 48u, 70u}) {
    for (const std::size_t k : {1u, 7u, 8u, 24u}) {
      const std::size_t m = 6;
      const Matrix a = random_matrix(m, k, rng, 0.2);
      const Matrix b = random_matrix(n, k, rng);
      const Matrix bt = transpose(b);
      const std::vector<std::uint32_t> rows = {4, 9, 0, 2, 7, 5};  // distinct
      const Matrix base = random_matrix(10, n, rng);

      Matrix stored(m, n);
      Matrix scattered = base;
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t c = 0; c < n; ++c) {
          double acc = 0.0;
          for (std::size_t kk = 0; kk < k; ++kk)
            acc += static_cast<double>(a(i, kk)) * static_cast<double>(b(c, kk));
          stored(i, c) = static_cast<float>(acc);
          scattered(rows[i], c) += static_cast<float>(acc);
        }
      for (const SimdLevel level : supported_levels()) {
        const KernelTable& table = kernels_for(level);
        Matrix c0(m, n, 0.25f);  // garbage: the stored variant overwrites it
        table.matmul_t_b(a.data().data(), bt.data().data(), c0.data().data(),
                         nullptr, m, k, n, false);
        expect_bytes_equal(stored, c0, level_name(level));
        Matrix c1 = base;
        table.matmul_t_b(a.data().data(), bt.data().data(), c1.data().data(),
                         rows.data(), m, k, n, true);
        expect_bytes_equal(scattered, c1, level_name(level));
      }
    }
  }
}

TEST(KernelParity, MatmulTransposeBIntoUsesTheKernelAtEveryLevel) {
  LevelGuard guard;
  pg::Rng rng(47);
  const Matrix a = random_matrix(9, 24, rng);
  const Matrix b = random_matrix(13, 24, rng);
  set_active_level(SimdLevel::kScalar);
  const Matrix reference = matmul_transpose_b(a, b);
  for (const SimdLevel level : supported_levels()) {
    set_active_level(level);
    expect_bytes_equal(reference, matmul_transpose_b(a, b), level_name(level));
  }
}

TEST(KernelParity, ColumnSumsAccumulate) {
  pg::Rng rng(17);
  for (const std::size_t cols : {1u, 5u, 8u, 13u, 24u, 31u}) {
    const Matrix a = random_matrix(9, cols, rng);
    Matrix s0 = random_matrix(1, cols, rng);
    Matrix s1 = s0;
    scalar_table().column_sums_acc(s0.data().data(), a.data().data(), 9, cols);
    best_table().column_sums_acc(s1.data().data(), a.data().data(), 9, cols);
    expect_bytes_equal(s0, s1, "column_sums_acc");
  }
}

TEST(KernelParity, SegmentRowMeanRaggedSegments) {
  pg::Rng rng(19);
  for (const std::size_t cols : {1u, 7u, 8u, 24u, 29u}) {
    // Ragged segments including length-1; last offset == rows.
    const std::vector<std::uint32_t> offsets = {0, 1, 4, 9, 10, 16};
    const Matrix a = random_matrix(16, cols, rng);
    Matrix o0(offsets.size() - 1, cols, 1.0f);
    Matrix o1(offsets.size() - 1, cols, -1.0f);
    scalar_table().segment_row_mean(o0.data().data(), a.data().data(),
                                    offsets.data(), offsets.size() - 1, cols);
    best_table().segment_row_mean(o1.data().data(), a.data().data(),
                                  offsets.data(), offsets.size() - 1, cols);
    expect_bytes_equal(o0, o1, "segment_row_mean");
  }
  // Single-row matrix, one segment: the row_mean_into-equivalence case.
  const Matrix single = random_matrix(1, 24, rng);
  const std::vector<std::uint32_t> one = {0, 1};
  Matrix s0(1, 24), s1(1, 24);
  scalar_table().segment_row_mean(s0.data().data(), single.data().data(),
                                  one.data(), 1, 24);
  best_table().segment_row_mean(s1.data().data(), single.data().data(),
                                one.data(), 1, 24);
  expect_bytes_equal(s0, s1, "segment_row_mean single");
}

TEST(KernelParity, SegmentRowMeanRejectsEmptySegmentsAtEveryLevel) {
  // The wrapper's precondition fires before dispatch, so the contract is
  // level-independent by construction — pin it anyway.
  LevelGuard guard;
  pg::Rng rng(23);
  const Matrix a = random_matrix(4, 8, rng);
  const std::vector<std::uint32_t> offsets = {0, 2, 2, 4};  // empty middle
  for (const SimdLevel level : {SimdLevel::kScalar, max_supported_level()}) {
    set_active_level(level);
    Matrix out(offsets.size() - 1, 8);
    EXPECT_THROW(segment_row_mean_into(out, a, offsets), pg::InternalError)
        << level_name(level);
  }
}

TEST(KernelParity, AddBiasRows) {
  pg::Rng rng(37);
  for (const std::size_t cols : {1u, 7u, 8u, 24u, 26u}) {
    const Matrix bias = random_matrix(1, cols, rng);
    Matrix y0 = random_matrix(5, cols, rng);
    Matrix y1 = y0;
    scalar_table().add_bias_rows(y0.data().data(), bias.data().data(), 5, cols);
    best_table().add_bias_rows(y1.data().data(), bias.data().data(), 5, cols);
    expect_bytes_equal(y0, y1, "add_bias_rows");
  }
}

TEST(KernelParity, ActivationsIncludingRemainderLanes) {
  pg::Rng rng(29);
  for (const std::size_t n : {1u, 3u, 8u, 15u, 32u, 37u}) {
    const Matrix x = random_matrix(1, n, rng, 0.3);  // zeros hit x > 0 edges
    const Matrix dy = random_matrix(1, n, rng);
    Matrix a0(1, n), a1(1, n);

    scalar_table().relu(a0.data().data(), x.data().data(), n);
    best_table().relu(a1.data().data(), x.data().data(), n);
    expect_bytes_equal(a0, a1, "relu");

    scalar_table().relu_backward(a0.data().data(), dy.data().data(),
                                 x.data().data(), n);
    best_table().relu_backward(a1.data().data(), dy.data().data(),
                               x.data().data(), n);
    expect_bytes_equal(a0, a1, "relu_backward");

    scalar_table().leaky_relu(a0.data().data(), x.data().data(), 0.2f, n);
    best_table().leaky_relu(a1.data().data(), x.data().data(), 0.2f, n);
    expect_bytes_equal(a0, a1, "leaky_relu");

    scalar_table().leaky_relu_grad(a0.data().data(), x.data().data(), 0.2f, n);
    best_table().leaky_relu_grad(a1.data().data(), x.data().data(), 0.2f, n);
    expect_bytes_equal(a0, a1, "leaky_relu_grad");
  }
}

TEST(KernelParity, AdamUpdateSequences) {
  pg::Rng rng(31);
  for (const double weight_decay : {0.0, 0.013}) {
    const std::size_t n = 37;  // remainder lanes on every vector width
    Matrix t0 = random_matrix(1, n, rng);
    Matrix m0(1, n), v0(1, n);
    Matrix t1 = t0, m1 = m0, v1 = v0;
    AdamStep step;
    step.weight_decay = weight_decay;
    for (int s = 1; s <= 3; ++s) {
      const Matrix g = random_matrix(1, n, rng);
      step.bias1 = 1.0 - std::pow(step.beta1, s);
      step.bias2 = 1.0 - std::pow(step.beta2, s);
      scalar_table().adam_update(t0.data().data(), g.data().data(),
                                 m0.data().data(), v0.data().data(), n, step);
      best_table().adam_update(t1.data().data(), g.data().data(),
                               m1.data().data(), v1.data().data(), n, step);
    }
    expect_bytes_equal(t0, t1, "adam theta");
    expect_bytes_equal(m0, m1, "adam m");
    expect_bytes_equal(v0, v1, "adam v");
  }
}

// ------------------------------------------------------ end-to-end ---------

graph::ProgramGraph small_graph() {
  auto r = frontend::parse_source(R"(
    void f(void) {
      for (int i = 0; i < 40; i++) {
        for (int j = 0; j < 8; j++) {
          double x = 1.0;
        }
      }
    }
  )");
  EXPECT_TRUE(r.ok());
  return graph::build_graph(r.root(), {});
}

/// Predictions + full gradient buffers under one dispatch level.
std::pair<std::vector<double>, std::vector<Matrix>> run_model_pass(
    SimdLevel level, std::size_t hidden) {
  LevelGuard guard;
  set_active_level(level);
  model::ParaGraphModel m(model::ModelConfig{.hidden_dim = hidden, .seed = 3});
  const auto g = small_graph();
  std::vector<Matrix> grads;
  for (auto* p : m.parameters()) grads.emplace_back(p->rows(), p->cols());
  std::vector<double> preds;
  Workspace ws;
  for (int i = 0; i < 4; ++i) {
    const double t = 0.2 * (i + 1);
    const auto enc = model::encode_graph(g, 40.0 + 100.0 * t);
    const std::array<float, 2> aux = {static_cast<float>(t),
                                      static_cast<float>(1.0 - t)};
    preds.push_back(m.predict(enc, aux, ws));
    preds.push_back(
        m.accumulate_gradients(enc, aux, 0.5, 1.0, grads, ws));
  }
  return {std::move(preds), std::move(grads)};
}

TEST(EndToEndParity, ForwardAndBackwardBitwiseAcrossLevels) {
  // hidden 8/24 exercise the templated widths, 10 the runtime-width path.
  for (const std::size_t hidden : {8u, 10u, 24u}) {
    const auto [scalar_preds, scalar_grads] =
        run_model_pass(SimdLevel::kScalar, hidden);
    for (const SimdLevel level : supported_levels()) {
      const auto [simd_preds, simd_grads] = run_model_pass(level, hidden);
      EXPECT_EQ(scalar_preds, simd_preds)
          << "hidden " << hidden << " " << level_name(level);
      ASSERT_EQ(scalar_grads.size(), simd_grads.size());
      for (std::size_t p = 0; p < scalar_grads.size(); ++p)
        expect_bytes_equal(scalar_grads[p], simd_grads[p], level_name(level));
    }
  }
}

/// Trains a small model under `level`; returns the flattened parameters.
std::vector<float> train_and_flatten(SimdLevel level) {
  LevelGuard guard;
  set_active_level(level);
  model::SampleSet set;
  set.target_scaler.fit_bounds(0.0, 1000.0);
  set.teams_scaler.fit_bounds(1.0, 2.0);
  set.threads_scaler.fit_bounds(1.0, 2.0);
  const auto g = small_graph();
  for (std::size_t i = 0; i < 10; ++i) {
    model::TrainingSample s;
    const double t = static_cast<double>(i) / 10.0;
    s.graph = model::encode_graph(g, 40.0 + 400.0 * t);
    s.aux = {static_cast<float>(t), static_cast<float>(1.0 - t)};
    s.runtime_us = 100.0 + 800.0 * t;
    s.target_scaled = set.target_scaler.transform(s.runtime_us);
    (i % 3 == 0 ? set.validation : set.train).push_back(std::move(s));
  }
  model::ParaGraphModel m(model::ModelConfig{.hidden_dim = 8, .seed = 21});
  model::TrainConfig config;
  config.epochs = 3;
  config.batch_size = 4;
  (void)model::train_model(m, set, config);
  std::vector<float> flat;
  for (const auto* p : std::as_const(m).parameters())
    flat.insert(flat.end(), p->data().begin(), p->data().end());
  return flat;
}

TEST(EndToEndParity, TrainedCheckpointBitwiseAcrossLevels) {
  const std::vector<float> scalar_params =
      train_and_flatten(SimdLevel::kScalar);
  const std::vector<float> simd_params =
      train_and_flatten(max_supported_level());
  ASSERT_EQ(scalar_params.size(), simd_params.size());
  EXPECT_EQ(std::memcmp(scalar_params.data(), simd_params.data(),
                        scalar_params.size() * sizeof(float)),
            0);
}

// --------------------------------------------------- dispatch probe --------

TEST(DispatchProbe, UnknownNamesFallBackCleanly) {
  EXPECT_EQ(level_from_name("avx512"), std::nullopt);
  EXPECT_EQ(level_from_name(""), std::nullopt);
  EXPECT_EQ(level_from_name("SCALAR"), std::nullopt);  // names are exact
  // Unknown env/CLI value -> the probe's own choice, never a crash.
  EXPECT_EQ(resolve_level("bogus", max_supported_level()),
            max_supported_level());
  EXPECT_EQ(resolve_level("", SimdLevel::kScalar), SimdLevel::kScalar);
}

TEST(DispatchProbe, KnownLevelsResolveAndClamp) {
  EXPECT_EQ(resolve_level("scalar", max_supported_level()),
            SimdLevel::kScalar);
  // A known-but-unsupported level clamps down to the best supported one;
  // a supported one resolves to itself.
  const SimdLevel avx2 = resolve_level("avx2", SimdLevel::kScalar);
  EXPECT_LE(static_cast<int>(avx2), static_cast<int>(max_supported_level()));
  EXPECT_TRUE(level_supported(avx2));
  EXPECT_TRUE(level_supported(SimdLevel::kScalar));
}

TEST(DispatchProbe, SetActiveLevelClampsToSupported) {
  LevelGuard guard;
  set_active_level(SimdLevel::kAvx2);  // may not be supported here
  EXPECT_TRUE(level_supported(active_level()));
  set_active_level(SimdLevel::kScalar);
  EXPECT_EQ(active_level(), SimdLevel::kScalar);
  // The scalar and best tables are distinct objects unless scalar IS best.
  if (max_supported_level() != SimdLevel::kScalar) {
    EXPECT_NE(&scalar_table(), &best_table());
  }
}

TEST(DispatchProbe, LevelNamesRoundTrip) {
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2}) {
    const auto parsed = level_from_name(level_name(level));
    ASSERT_TRUE(parsed.has_value()) << level_name(level);
    EXPECT_EQ(*parsed, level) << level_name(level);
  }
}

}  // namespace
}  // namespace pg::tensor::simd
