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
#include <string>
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

// ------------------------------------------------------- RGAT kernels -----

/// The dense/sparse hybrid's reference decision: dense when at least half
/// the entries are nonzero (NaN counts as nonzero, -0.0 does not).
bool reference_dense(const float* src, std::size_t k) {
  std::size_t nnz = 0;
  for (std::size_t kk = 0; kk < k; ++kk) nnz += (src[kk] != 0.0f);
  return 2 * nnz >= k;
}

/// dst (+)= src * w, the reference hybrid: a dense row adds every term, a
/// sparse one skips the zero entries; terms in kk order either way.
void reference_project_row(const float* src, const Matrix& w, float* dst,
                           bool accumulate) {
  const std::size_t k = w.rows();
  const std::size_t n = w.cols();
  if (!accumulate)
    for (std::size_t j = 0; j < n; ++j) dst[j] = 0.0f;
  const bool dense = reference_dense(src, k);
  for (std::size_t kk = 0; kk < k; ++kk) {
    if (!dense && src[kk] == 0.0f) continue;
    for (std::size_t j = 0; j < n; ++j) dst[j] += src[kk] * w(kk, j);
  }
}

/// Uniform index in [0, n).
std::size_t pick(pg::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// Node feature rows for the projection kernels, one kind per row in
/// `kinds`: 'o' one-hot (plus the literal column on every third row), 'd'
/// dense, 'n' a one-hot row holding a NaN, 'N' a dense row holding a NaN,
/// 'z' a one-hot row whose other entries are -0.0 (skipped, not counted),
/// 'h' exactly half nonzero (the dense side of the threshold).
Matrix feature_rows(const std::string& kinds, std::size_t k, pg::Rng& rng) {
  Matrix x = random_matrix(kinds.size(), k, rng);
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const char kind = kinds[i];
    if (kind == 'd') continue;
    if (kind == 'N') {
      x(i, pick(rng, k)) = std::numeric_limits<float>::quiet_NaN();
      continue;
    }
    if (kind == 'h') {
      for (std::size_t kk = 0; kk < k; kk += 2) x(i, kk) = 0.0f;
      if (k % 2 == 1) x(i, k - 1) = 0.5f;
      continue;
    }
    for (std::size_t kk = 0; kk < k; ++kk)
      x(i, kk) = kind == 'z' ? -0.0f : 0.0f;
    x(i, pick(rng, k - 1)) = 1.0f;
    if (i % 3 == 0) x(i, k - 1) = 0.37f;
    if (kind == 'n')
      x(i, pick(rng, k)) = std::numeric_limits<float>::quiet_NaN();
  }
  return x;
}

TEST(KernelParity, RgatGatherProjectOneHotAndMixedRowsAllLevels) {
  // The fused gather->project against the reference hybrid at every level:
  // one-hot rows (the sparse rows of the dense path), rows holding NaN or
  // -0.0, dense/sparse row pairs in every order (two dense neighbours run
  // as a register pair), odd row counts, and an input wider than 64 (the
  // nonzero walk's long-row path). The destination block starts from
  // nonzero values at a row offset: the kernel accumulates. Where no row
  // holds a NaN, one weight is +inf, so the path a row takes shows in the
  // result (a skipped zero adds nothing, a dense zero adds 0 * inf = NaN).
  pg::Rng rng(53);
  const std::vector<std::string> row_sets = {
      "o", "d", "od", "do", "dd", "ddd", "oooo", "ddodo",
      "nzdhNdo", "hdddoddzd", "ododododdddoo"};
  for (const std::size_t in : {45u, 24u, 70u, 7u}) {
    for (const std::size_t out : {8u, 10u, 16u, 24u, 32u}) {
      for (const std::string& kinds : row_sets) {
        Matrix w = random_matrix(in, out, rng);
        if (kinds.find_first_of("nN") == std::string::npos)
          w(in - 2, out - 1) = std::numeric_limits<float>::infinity();
        const Matrix x = feature_rows(kinds, in, rng);
        // Gather the rows in reverse, the way a relation picks its nodes.
        const std::size_t na = kinds.size();
        std::vector<std::uint32_t> nodes(na);
        for (std::size_t i = 0; i < na; ++i)
          nodes[i] = static_cast<std::uint32_t>(na - 1 - i);
        const std::size_t row_off = 3;
        const Matrix base = random_matrix(row_off + na, out, rng);

        Matrix expected = base;
        for (std::size_t i = 0; i < na; ++i)
          reference_project_row(&x(nodes[i], 0), w, &expected(row_off + i, 0),
                                /*accumulate=*/true);
        Matrix expected_mm(na, out);
        for (std::size_t i = 0; i < na; ++i)
          reference_project_row(&x(i, 0), w, &expected_mm(i, 0),
                                /*accumulate=*/false);
        for (const SimdLevel level : supported_levels()) {
          const KernelTable& table = kernels_for(level);
          Matrix got = base;
          table.rgat_gather_project(nodes.data(), na, x.data().data(), in,
                                    w.data().data(), got.data().data(), out,
                                    row_off);
          expect_bytes_equal(expected, got, level_name(level));
          Matrix got_mm(na, out, 0.5f);
          table.matmul(x.data().data(), w.data().data(), got_mm.data().data(),
                       na, in, out, false);
          expect_bytes_equal(expected_mm, got_mm, level_name(level));
        }
      }
    }
  }
}

TEST(KernelParity, OneHotProjectAndScatterMatchTheDensePathAllLevels) {
  // The first layer's one-hot kernels against the dense kernels they
  // replace, run on the same rows expanded to the [m x 45] one-hot matrix:
  // onehot_project against matmul (W_self, from a zero block) and against
  // rgat_gather_project (W_r, gathered rows accumulating into a nonzero
  // block), onehot_scatter_acc against matmul_t_a_acc (dW_self, and the
  // gathered dW_r) accumulating into a block holding a -0.0. Kinds 0 and 43
  // always occur; literals cycle through 0.0, -0.0, NaN, 1e30 and ordinary
  // values; weights and dy hold -0.0, NaN and +inf. Every result must equal
  // the dense path's bytes at the same level and at the scalar level.
  constexpr std::size_t kIn = model::kNodeFeatureDim;
  constexpr std::size_t kLit = kIn - 1;
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  pg::Rng rng(67);
  for (std::size_t m = 1; m <= 31; ++m) {
    for (const std::size_t out : {8u, 10u, 16u, 24u, 32u}) {
      std::vector<std::uint8_t> kinds(m);
      std::vector<float> literals(m);
      const float cycle[] = {0.0f, -0.0f, kNaN, 1e30f, 0.37f, 1.5f};
      for (std::size_t i = 0; i < m; ++i) {
        kinds[i] = static_cast<std::uint8_t>(pick(rng, kLit));
        literals[i] = cycle[(i + m) % 6];
      }
      kinds[0] = 0;
      kinds[m - 1] = 43;
      Matrix x(m, kIn);
      for (std::size_t i = 0; i < m; ++i) {
        x(i, kinds[i]) = 1.0f;
        x(i, kLit) = literals[i];
      }
      Matrix w = random_matrix(kIn, out, rng);
      w(0, 0) = -0.0f;
      w(43, out - 1) = kInf;
      w(kinds[m / 2], 1) = kNaN;
      w(kLit, out / 2) = -0.0f;
      w(kLit, 2) = kInf;
      Matrix dy = random_matrix(m, out, rng);
      dy(0, 0) = -0.0f;
      dy(m - 1, out - 1) = kNaN;
      dy(m / 2, 3) = kInf;
      std::vector<std::uint32_t> nodes(m);  // every row, shuffled
      for (std::size_t i = 0; i < m; ++i)
        nodes[i] = static_cast<std::uint32_t>((7 * i + 3) % m);
      if (m % 7 == 0)
        for (std::size_t i = 0; i < m; ++i)
          nodes[i] = static_cast<std::uint32_t>(m - 1 - i);
      Matrix base = random_matrix(m, out, rng);
      Matrix dw_base = random_matrix(kIn, out, rng);
      dw_base(43, 0) = -0.0f;
      dw_base(kLit, 1) = -0.0f;

      const auto run = [&](const KernelTable& t, bool one_hot,
                           std::array<Matrix, 4>& r) {
        r[0] = Matrix(m, out);  // self projection
        r[1] = base;            // gathered projection
        r[2] = dw_base;         // dW_self
        r[3] = dw_base;         // dW_r
        if (one_hot) {
          t.onehot_project(kinds.data(), literals.data(), nullptr, m,
                           w.data().data(), kLit, r[0].data().data(), out);
          t.onehot_project(kinds.data(), literals.data(), nodes.data(), m,
                           w.data().data(), kLit, r[1].data().data(), out);
          t.onehot_scatter_acc(kinds.data(), literals.data(), nullptr, m,
                               dy.data().data(), r[2].data().data(), kLit,
                               out);
          t.onehot_scatter_acc(kinds.data(), literals.data(), nodes.data(),
                               m, dy.data().data(), r[3].data().data(), kLit,
                               out);
        } else {
          t.matmul(x.data().data(), w.data().data(), r[0].data().data(), m,
                   kIn, out, false);
          t.rgat_gather_project(nodes.data(), m, x.data().data(), kIn,
                                w.data().data(), r[1].data().data(), out, 0);
          t.matmul_t_a_acc(x.data().data(), nullptr, dy.data().data(),
                           r[2].data().data(), kIn, m, out);
          t.matmul_t_a_acc(x.data().data(), nodes.data(), dy.data().data(),
                           r[3].data().data(), kIn, m, out);
        }
      };
      std::array<Matrix, 4> reference;
      run(scalar_table(), /*one_hot=*/false, reference);
      for (const SimdLevel level : supported_levels()) {
        std::array<Matrix, 4> dense;
        std::array<Matrix, 4> sparse;
        run(kernels_for(level), false, dense);
        run(kernels_for(level), true, sparse);
        const char* what[] = {"self projection", "gathered projection",
                              "dW_self scatter", "dW_r scatter"};
        for (std::size_t c = 0; c < 4; ++c) {
          SCOPED_TRACE(std::string(level_name(level)) + " m=" +
                       std::to_string(m) + " out=" + std::to_string(out));
          expect_bytes_equal(dense[c], sparse[c], what[c]);
          expect_bytes_equal(reference[c], sparse[c], what[c]);
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(KernelParity, RgatAttentionDotsAnyRowCountAllLevels) {
  // Both attention dots per row, lanes across rows at the vector levels:
  // each row's double sum from 0.0 in j order, narrowed once. Row counts
  // around every lane width (partial last steps) and widths with column
  // tails, hidden 10 included. Every third row cancels +-1e20 around a
  // small term, so any change to the j order shows in the result.
  pg::Rng rng(59);
  for (const std::size_t out : {1u, 3u, 8u, 10u, 16u, 24u, 27u, 32u}) {
    Matrix a_src = random_matrix(1, out, rng);
    Matrix a_dst = random_matrix(1, out, rng);
    if (out >= 3) a_src(0, 0) = a_src(0, 2) = a_dst(0, 0) = a_dst(0, 2) = 1.0f;
    for (const std::size_t rows :
         {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 12u, 13u, 17u, 31u}) {
      Matrix g = random_matrix(rows, out, rng, 0.2);
      for (std::size_t i = 1; out >= 3 && i < rows; i += 3) {
        g(i, 0) = 1e20f;
        g(i, 2) = -1e20f;
      }
      Matrix ss(1, rows), sd(1, rows);
      for (std::size_t i = 0; i < rows; ++i) {
        double acc_s = 0.0;
        double acc_d = 0.0;
        for (std::size_t j = 0; j < out; ++j) {
          acc_s += static_cast<double>(g(i, j)) * static_cast<double>(a_src(0, j));
          acc_d += static_cast<double>(g(i, j)) * static_cast<double>(a_dst(0, j));
        }
        ss(0, i) = static_cast<float>(acc_s);
        sd(0, i) = static_cast<float>(acc_d);
      }
      for (const SimdLevel level : supported_levels()) {
        Matrix got_s(1, rows, 7.0f), got_d(1, rows, 7.0f);
        kernels_for(level).rgat_attention_dots(
            g.data().data(), rows, out, a_src.data().data(),
            a_dst.data().data(), got_s.data().data(), got_d.data().data());
        expect_bytes_equal(ss, got_s, level_name(level));
        expect_bytes_equal(sd, got_d, level_name(level));
      }
    }
  }
}

TEST(KernelParity, RgatAttentionScatterAllLevels) {
  // Grouped softmax + gated scatter against the scalar reference (max
  // shift from -1e30, exp, double denominator, one division per edge) at
  // every level. Single-edge groups are also fed the logits whose weight
  // is not exactly 1: +inf, NaN and one below the max-scan floor.
  pg::Rng rng(67);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<std::size_t> sizes = {1, 1, 3, 1, 1, 2, 1, 1, 5, 1};
  const std::vector<float> single_src = {0.3f, inf, 0.0f, nan, -1e31f, 2.0f};
  for (const std::size_t out : {8u, 10u, 24u}) {
    // Wider groups draw their sources from rows 0-3; single-edge group k
    // reads row 4 + k alone, scored single_src[k], so each non-finite
    // score reaches exactly one destination.
    std::vector<std::uint32_t> offsets = {0}, dst, src_local;
    std::size_t singles = 0;
    for (std::size_t group = 0; group < sizes.size(); ++group) {
      dst.push_back(static_cast<std::uint32_t>(group));
      for (std::size_t e = 0; e < sizes[group]; ++e)
        src_local.push_back(static_cast<std::uint32_t>(
            sizes[group] == 1 ? 4 + singles++ : pick(rng, 4)));
      offsets.push_back(static_cast<std::uint32_t>(src_local.size()));
    }
    const std::size_t na = 4 + singles;
    const std::size_t edges = src_local.size();
    std::vector<std::uint32_t> nodes(na);
    for (std::size_t i = 0; i < na; ++i)
      nodes[i] = static_cast<std::uint32_t>(na - 1 - i);
    const Matrix gates = random_matrix(1, edges, rng);
    const Matrix g = random_matrix(na, out, rng);
    const Matrix base = random_matrix(na, out, rng);
    Matrix ss = random_matrix(1, na, rng);
    const Matrix sd = random_matrix(1, na, rng);
    for (std::size_t k = 0; k < singles; ++k)
      ss(0, 4 + k) = single_src[k % single_src.size()];

    Matrix raw(1, edges), alpha(1, edges);
    Matrix pre = base;
    for (std::size_t group = 0; group < sizes.size(); ++group) {
      const std::size_t lo = offsets[group];
      const std::size_t hi = offsets[group + 1];
      float max_logit = -1e30f;
      for (std::size_t e = lo; e < hi; ++e) {
        raw(0, e) = ss(0, src_local[e]) + sd(0, dst[group]);
        alpha(0, e) = raw(0, e) > 0.0f ? raw(0, e) : 0.2f * raw(0, e);
        if (alpha(0, e) > max_logit) max_logit = alpha(0, e);
      }
      double denom = 0.0;
      for (std::size_t e = lo; e < hi; ++e) {
        alpha(0, e) = std::exp(alpha(0, e) - max_logit);
        denom += alpha(0, e);
      }
      for (std::size_t e = lo; e < hi; ++e) {
        alpha(0, e) = static_cast<float>(alpha(0, e) / denom);
        const float scale = alpha(0, e) * gates(0, e);
        for (std::size_t j = 0; j < out; ++j)
          pre(nodes[dst[group]], j) += scale * g(src_local[e], j);
      }
    }
    for (const SimdLevel level : supported_levels()) {
      Matrix got_raw(1, edges), got_alpha(1, edges);
      Matrix got_pre = base;
      kernels_for(level).rgat_attention_scatter(
          offsets.data(), dst.data(), sizes.size(), nodes.data(),
          src_local.data(), gates.data().data(), ss.data().data(),
          sd.data().data(), 0.2f, got_raw.data().data(),
          got_alpha.data().data(), g.data().data(), got_pre.data().data(),
          out);
      expect_bytes_equal(raw, got_raw, level_name(level));
      expect_bytes_equal(alpha, got_alpha, level_name(level));
      expect_bytes_equal(pre, got_pre, level_name(level));
    }
  }
}

/// One relation's attention-backward inputs and accumulators.
struct AttentionCase {
  std::vector<std::uint32_t> group_offsets, group_dst, nodes, src_local;
  Matrix gates, alpha, lrg, dpre, g, a_src, a_dst;
  Matrix dscore, dg, ds_src, ds_dst, da_src, da_dst;

  AttentionGrad args() {
    AttentionGrad a;
    a.group_offsets = group_offsets.data();
    a.group_dst = group_dst.data();
    a.num_groups = group_dst.size();
    a.nodes = nodes.data();
    a.src_local = src_local.data();
    a.num_active = nodes.size();
    a.out = g.cols();
    a.gates = gates.data().data();
    a.alpha = alpha.data().data();
    a.lrg = lrg.data().data();
    a.dpre = dpre.data().data();
    a.g = g.data().data();
    a.a_src = a_src.data().data();
    a.a_dst = a_dst.data().data();
    a.dscore = dscore.data().data();
    a.dg = dg.data().data();
    a.ds_src = ds_src.data().data();
    a.ds_dst = ds_dst.data().data();
    a.da_src = da_src.data().data();
    a.da_dst = da_dst.data().data();
    return a;
  }
};

/// A relation over `na` active rows of a (2 * na)-node graph whose groups
/// have the given sizes (destination = group index, distinct).
AttentionCase attention_case(const std::vector<std::size_t>& group_sizes,
                             std::size_t na, std::size_t out, pg::Rng& rng) {
  AttentionCase c;
  c.group_offsets.push_back(0);
  for (std::size_t group = 0; group < group_sizes.size(); ++group) {
    c.group_dst.push_back(static_cast<std::uint32_t>(group));
    for (std::size_t e = 0; e < group_sizes[group]; ++e)
      c.src_local.push_back(static_cast<std::uint32_t>(pick(rng, na)));
    c.group_offsets.push_back(static_cast<std::uint32_t>(c.src_local.size()));
  }
  for (std::size_t i = 0; i < na; ++i)
    c.nodes.push_back(static_cast<std::uint32_t>(2 * na - 1 - 2 * i));
  const std::size_t edges = c.src_local.size();
  c.gates = random_matrix(1, edges, rng);
  c.alpha = random_matrix(1, edges, rng);
  c.lrg = Matrix(1, edges);
  for (std::size_t e = 0; e < edges; ++e)
    c.lrg(0, e) = rng.uniform() < 0.5 ? 1.0f : 0.2f;
  c.dpre = random_matrix(2 * na, out, rng, 0.3);
  c.g = random_matrix(na, out, rng);
  // Row 1 of g cancels +-1e20 around a small term: the dscore dots of its
  // edges depend on their j order.
  if (out >= 3) {
    for (std::size_t v = 0; v < 2 * na; ++v) c.dpre(v, 0) = c.dpre(v, 2) = 1.0f;
    c.g(1, 0) = 1e20f;
    c.g(1, 2) = -1e20f;
  }
  c.a_src = random_matrix(1, out, rng);
  c.a_dst = random_matrix(1, out, rng);
  c.dscore = Matrix(1, edges);
  c.dg = random_matrix(na, out, rng);
  c.ds_src = Matrix(1, na);  // zero: rows no edge reaches are skipped
  c.ds_dst = Matrix(1, na);
  c.da_src = random_matrix(1, out, rng);
  c.da_dst = random_matrix(1, out, rng);
  return c;
}

/// The attention backward as the scalar program it replaced: per group,
/// each edge's dscore dot, alpha-weighted sum and dg scatter, then the
/// softmax backward into ds; then the per-row score-vector terms.
void reference_attention_backward(AttentionCase& c) {
  const std::size_t out = c.g.cols();
  for (std::size_t group = 0; group < c.group_dst.size(); ++group) {
    const std::size_t lo = c.group_offsets[group];
    const std::size_t hi = c.group_offsets[group + 1];
    const std::uint32_t v_local = c.group_dst[group];
    const std::uint32_t v_global = c.nodes[v_local];
    double weighted_sum = 0.0;
    for (std::size_t e = lo; e < hi; ++e) {
      const std::uint32_t src = c.src_local[e];
      double acc = 0.0;
      for (std::size_t j = 0; j < out; ++j)
        acc += static_cast<double>(c.dpre(v_global, j)) *
               static_cast<double>(c.g(src, j));
      c.dscore(0, e) = c.gates(0, e) * static_cast<float>(acc);
      weighted_sum += static_cast<double>(c.alpha(0, e)) *
                      static_cast<double>(c.dscore(0, e));
      const float scale = c.alpha(0, e) * c.gates(0, e);
      for (std::size_t j = 0; j < out; ++j)
        c.dg(src, j) += scale * c.dpre(v_global, j);
    }
    for (std::size_t e = lo; e < hi; ++e) {
      const float dlogit =
          c.alpha(0, e) * (c.dscore(0, e) - static_cast<float>(weighted_sum));
      const float draw = dlogit * c.lrg(0, e);
      c.ds_src(0, c.src_local[e]) += draw;
      c.ds_dst(0, v_local) += draw;
    }
  }
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    if (c.ds_src(0, i) != 0.0f)
      for (std::size_t j = 0; j < out; ++j) {
        c.dg(i, j) += c.ds_src(0, i) * c.a_src(0, j);
        c.da_src(0, j) += c.ds_src(0, i) * c.g(i, j);
      }
    if (c.ds_dst(0, i) != 0.0f)
      for (std::size_t j = 0; j < out; ++j) {
        c.dg(i, j) += c.ds_dst(0, i) * c.a_dst(0, j);
        c.da_dst(0, j) += c.ds_dst(0, i) * c.g(i, j);
      }
  }
}

TEST(KernelParity, RgatAttentionBackwardAllLevels) {
  // The attention backward kernel against the scalar program it replaced,
  // at every level: edge counts around the lane widths (the dscore dots
  // run lanes across edges, across group boundaries), single-edge and
  // wide groups, templated and runtime widths.
  pg::Rng rng(61);
  const std::vector<std::vector<std::size_t>> shapes = {
      {1}, {3}, {1, 1, 1, 1, 1, 1, 1, 1}, {2, 1, 5, 1}, {1, 7, 1, 1, 3},
      {4, 4, 4, 4, 1}, {1, 1, 2, 1, 1, 1, 9, 1, 1, 1, 1, 1, 2}};
  for (const std::size_t out : {8u, 10u, 16u, 24u, 32u, 5u}) {
    for (const auto& sizes : shapes) {
      const std::size_t na = sizes.size() + 3;
      const AttentionCase input = attention_case(sizes, na, out, rng);
      AttentionCase expected = input;
      reference_attention_backward(expected);
      for (const SimdLevel level : supported_levels()) {
        AttentionCase got = input;
        kernels_for(level).rgat_attention_backward(got.args());
        expect_bytes_equal(expected.dscore, got.dscore, level_name(level));
        expect_bytes_equal(expected.dg, got.dg, level_name(level));
        expect_bytes_equal(expected.ds_src, got.ds_src, level_name(level));
        expect_bytes_equal(expected.ds_dst, got.ds_dst, level_name(level));
        expect_bytes_equal(expected.da_src, got.da_src, level_name(level));
        expect_bytes_equal(expected.da_dst, got.da_dst, level_name(level));
      }
    }
  }
}

TEST(KernelParity, RgatGatedKernelsMatchSoftmaxPathOnSingleEdgeGroups) {
  // A relation whose every group holds one edge, run through the softmax
  // kernels and through the gated ones at every level. With finite logits
  // the softmax weighs each edge 1.0f, so the gated scatter must write the
  // softmax scatter's pre bytes, the gated gather the attention backward's
  // dg bytes, and the attention backward must leave da_src/da_dst as they
  // were. Gates include 0 and negatives; local row 0 sources every third
  // edge, so its dg row sums many terms in edge order.
  pg::Rng rng(79);
  for (const std::size_t out : {8u, 10u, 16u, 24u, 32u, 5u}) {
    for (const std::size_t edges : {1u, 3u, 8u, 13u, 37u}) {
      const std::size_t na = edges + 4;
      AttentionCase c =
          attention_case(std::vector<std::size_t>(edges, 1), na, out, rng);
      for (std::size_t e = 0; e < edges; ++e) {
        if (e % 3 == 0) c.src_local[e] = 0;
        if (e % 5 == 1) c.gates(0, e) = 0.0f;
      }
      const Matrix ss = random_matrix(1, na, rng);
      const Matrix sd = random_matrix(1, na, rng);
      const Matrix base = random_matrix(2 * na, out, rng);

      Matrix scalar_pre, scalar_dg;
      for (const SimdLevel level : supported_levels()) {
        const KernelTable& k = kernels_for(level);
        Matrix raw(1, edges), alpha(1, edges);
        Matrix soft_pre = base;
        k.rgat_attention_scatter(
            c.group_offsets.data(), c.group_dst.data(), edges, c.nodes.data(),
            c.src_local.data(), c.gates.data().data(), ss.data().data(),
            sd.data().data(), 0.2f, raw.data().data(), alpha.data().data(),
            c.g.data().data(), soft_pre.data().data(), out);
        Matrix gated_pre = base;
        k.rgat_gated_scatter(c.group_dst.data(), c.nodes.data(),
                             c.src_local.data(), c.gates.data().data(), edges,
                             c.g.data().data(), gated_pre.data().data(), out);
        expect_bytes_equal(soft_pre, gated_pre, level_name(level));
        for (const float a : alpha.data()) ASSERT_EQ(a, 1.0f);

        // The backward reads the forward's alpha and LeakyReLU gradient.
        AttentionCase soft = c;
        soft.alpha = alpha;
        k.leaky_relu_grad(soft.lrg.data().data(), raw.data().data(), 0.2f,
                          edges);
        k.rgat_attention_backward(soft.args());
        AttentionCase gated = c;
        k.rgat_gated_gather(gated.group_dst.data(), gated.nodes.data(),
                            gated.src_local.data(), gated.gates.data().data(),
                            edges, gated.dpre.data().data(),
                            gated.dg.data().data(), out);
        expect_bytes_equal(soft.dg, gated.dg, level_name(level));
        expect_bytes_equal(c.da_src, soft.da_src, level_name(level));
        expect_bytes_equal(c.da_dst, soft.da_dst, level_name(level));

        if (level == SimdLevel::kScalar) {
          scalar_pre = gated_pre;
          scalar_dg = gated.dg;
        } else {
          expect_bytes_equal(scalar_pre, gated_pre, level_name(level));
          expect_bytes_equal(scalar_dg, gated.dg, level_name(level));
        }
      }
    }
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

TEST(DispatchProbe, OverrideWarningNamesTheValueAndTheLevelUsed) {
  // PARAGRAPH_SIMD is read once, at first dispatch; a value that does not
  // select its own level is reported on stderr with this line, never
  // silently replaced.
  const std::string best = level_name(max_supported_level());
  EXPECT_EQ(override_warning(""), "");  // unset: the probe, nothing to say
  EXPECT_EQ(override_warning("scalar"), "");
  EXPECT_EQ(override_warning("avx512"),
            "paragraph: PARAGRAPH_SIMD=avx512 is not a known level; using " +
                best);
  EXPECT_EQ(override_warning("SCALAR"),
            "paragraph: PARAGRAPH_SIMD=SCALAR is not a known level; using " +
                best);
  for (const SimdLevel level : {SimdLevel::kSse2, SimdLevel::kAvx2}) {
    const std::string name = level_name(level);
    if (level_supported(level)) {
      EXPECT_EQ(override_warning(name), "") << name;
    } else {
      EXPECT_EQ(override_warning(name),
                "paragraph: PARAGRAPH_SIMD=" + name +
                    " is not supported on this CPU; using " + best);
    }
  }
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
