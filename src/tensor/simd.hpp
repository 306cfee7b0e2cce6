// Runtime-dispatched SIMD kernel layer under the tensor/nn hot paths.
//
// Design contract — BITWISE determinism across dispatch levels:
//   * Every kernel vectorises across *independent output lanes* only. Two
//     layouts qualify: the `j` columns of a row-major destination (or
//     independent elements of an elementwise map), and lanes across
//     independent rows, each lane holding one row's ordered reduction (the
//     RGAT attention dots: lane r sums row r's products in `j` order, read
//     through a small transpose). Reduction axes (`k` in matmuls, `j` in a
//     dot, edge groups in the RGAT softmax) always run in the scalar
//     program order.
//   * Multiplies and adds are issued as separate instructions — never FMA —
//     and the kernel translation units are compiled with -ffp-contract=off,
//     so each lane performs exactly the float operations of the scalar
//     reference. A prediction, gradient, or trained checkpoint is therefore
//     byte-identical whether it ran under scalar, SSE2/NEON, or AVX2
//     (pinned by kernels_test).
//
// Dispatch: the best level is probed once at startup (compile-time ISA
// availability + cpuid) and can be overridden with PARAGRAPH_SIMD=
// scalar|sse2|avx2 ("neon" names the 128-bit level on aarch64). Unknown
// names fall back to the probe; known-but-unsupported levels clamp down to
// the best supported one; either case prints one stderr line naming the
// value and the level used. Tests, benches, and the CLI's --simd flag may
// re-select with set_active_level(); that setter is not thread-safe against
// concurrently running kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "tensor/align.hpp"

namespace pg::tensor::simd {

/// Dispatch levels, ordered by preference. kSse2 is the 128-bit lane level
/// (SSE2 on x86, NEON on aarch64); kAvx2 the 256-bit one (x86 only).
enum class SimdLevel : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Adam hyper-parameters + per-step bias corrections for the fused update.
struct AdamStep {
  double beta1 = 0.9;
  double beta2 = 0.999;
  double learning_rate = 1e-3;
  double epsilon = 1e-8;
  double weight_decay = 0.0;
  double bias1 = 1.0;  // 1 - beta1^t
  double bias2 = 1.0;  // 1 - beta2^t
};

/// One relation's attention backward (KernelTable::rgat_attention_backward).
/// Edge arrays (gates, alpha, lrg, dscore) start at the relation's first
/// edge; row arrays (g, dg, ds_src, ds_dst) at its first active row; dpre
/// is the full [N x out] pre-activation gradient, indexed by global node.
/// For every group (destination v, edges e in group order):
///   dscore[e] = gate[e] * float(sum_j double(dpre[v,j]) * double(g[src,j]))
///   dg[src]  += (alpha[e] * gate[e]) * dpre[v]       (edge order)
///   w         = sum_e double(alpha[e]) * double(dscore[e])
///   draw      = alpha[e] * (dscore[e] - float(w)) * lrg[e]
///   ds_src[src] += draw; ds_dst[v_local] += draw      (edge order)
/// then for every active row i in order (rows with ds == 0 skipped):
///   dg[i] += ds_src[i] * a_src; da_src += ds_src[i] * g[i]
///   dg[i] += ds_dst[i] * a_dst; da_dst += ds_dst[i] * g[i]
/// dg, ds_src, ds_dst, da_src and da_dst accumulate; dscore is scratch.
struct AttentionGrad {
  const std::uint32_t* group_offsets = nullptr;
  const std::uint32_t* group_dst = nullptr;
  std::size_t num_groups = 0;
  const std::uint32_t* nodes = nullptr;
  const std::uint32_t* src_local = nullptr;
  std::size_t num_active = 0;  // rows of g/dg/ds_src/ds_dst
  std::size_t out = 0;
  const float* gates = nullptr;
  const float* alpha = nullptr;
  const float* lrg = nullptr;  // LeakyReLU gradient per edge
  const float* dpre = nullptr;
  const float* g = nullptr;
  const float* a_src = nullptr;
  const float* a_dst = nullptr;
  float* dscore = nullptr;
  float* dg = nullptr;
  float* ds_src = nullptr;
  float* ds_dst = nullptr;
  float* da_src = nullptr;
  float* da_dst = nullptr;
};

/// One dispatch level's kernel entry points. All pointers are non-null in
/// every table; raw-pointer signatures so nn/ and tensor/ call sites can
/// pass workspace-backed storage without shape re-validation (callers check
/// shapes before dispatch).
struct KernelTable {
  /// C = A * B, i-k-j order with the dense/sparse per-row hybrid (zero-skip
  /// for mostly-zero rows, branchless otherwise). C is fully written.
  void (*matmul)(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, bool parallel);
  /// C += A'^T * B without materialising the transpose, where A' is A's
  /// rows a_rows[0..k) (A itself when a_rows is null — the RGAT dW_r path
  /// gathers active node rows). Each C element adds its kk terms in kk
  /// order, skipping zero A entries. m = A.cols, k = A'.rows, n = B.cols.
  void (*matmul_t_a_acc)(const float* a, const std::uint32_t* a_rows,
                         const float* b, float* c, std::size_t m,
                         std::size_t k, std::size_t n);
  /// C (+)= A * B^T, every element accumulated in double: starting at 0.0,
  /// += double(a[i,kk]) * double(b[c,kk]) for kk in order, narrowed to float
  /// once; `accumulate` adds that float to C instead of storing it. Takes
  /// bt = B^T ([k x n], row kk = B's column kk) so the lanes run across
  /// independent output columns. Row i of the product lands on C row
  /// c_rows[i] (row i when c_rows is null); scattered rows must be
  /// distinct. m = A.rows, k = A.cols, n = C.cols.
  void (*matmul_t_b)(const float* a, const float* bt, float* c,
                     const std::uint32_t* c_rows, std::size_t m,
                     std::size_t k, std::size_t n, bool accumulate);
  /// sums[j] += sum_i a[i,j] (bias-gradient reduction; row order preserved).
  void (*column_sums_acc)(float* sums, const float* a, std::size_t rows,
                          std::size_t cols);
  /// out[s,:] = mean of a rows [offsets[s], offsets[s+1]); per-segment sum
  /// then scale, row order preserved. Segments must be non-empty (checked
  /// by the tensor::segment_row_mean_into wrapper).
  void (*segment_row_mean)(float* out, const float* a,
                           const std::uint32_t* offsets,
                           std::size_t num_segments, std::size_t cols);
  /// y[i,:] += bias for every row (the Linear/RGAT bias broadcast).
  void (*add_bias_rows)(float* y, const float* bias, std::size_t rows,
                        std::size_t cols);
  void (*relu)(float* y, const float* x, std::size_t n);
  void (*relu_backward)(float* dx, const float* dy, const float* x,
                        std::size_t n);
  void (*leaky_relu)(float* y, const float* x, float slope, std::size_t n);
  void (*leaky_relu_grad)(float* g, const float* x, float slope,
                          std::size_t n);
  /// One parameter tensor's Adam update (double-lane math, float storage),
  /// element order and rounding points identical to the scalar reference.
  void (*adam_update)(float* theta, const float* g, float* m, float* v,
                      std::size_t n, const AdamStep& step);
  /// RGAT fused gather->project: for i in [0, na),
  ///   gbuf[(row_off + i) * out + :] += x[nodes[i] * in + :] * w
  /// with the same dense/sparse hybrid as matmul. gbuf rows start zeroed.
  void (*rgat_gather_project)(const std::uint32_t* nodes, std::size_t na,
                              const float* x, std::size_t in, const float* w,
                              float* gbuf, std::size_t out,
                              std::size_t row_off);
  /// One-hot projection (the first RGAT layer's W_self and fused W_r
  /// gather): for i in [0, m), v = rows[i] (i when rows is null),
  ///   dst[i,:] += w[kinds[v],:];
  ///   if (literals[v] != 0.0f) dst[i,:] += literals[v] * w[lit_row,:]
  /// (NaN counts as nonzero). These are exactly the adds matmul and
  /// rgat_gather_project perform on the expanded one-hot row — its two
  /// nonzeros in column order, the 1.0f * w product being w itself — so
  /// over a zero-filled dst the result is theirs bit for bit.
  void (*onehot_project)(const std::uint8_t* kinds, const float* literals,
                         const std::uint32_t* rows, std::size_t m,
                         const float* w, std::size_t lit_row, float* dst,
                         std::size_t out);
  /// One-hot dW scatter, the transpose of onehot_project: for i in [0, m)
  /// in order, v = rows[i] (i when rows is null),
  ///   c[kinds[v],:] += dy[i,:];
  ///   if (literals[v] != 0.0f) c[lit_row,:] += literals[v] * dy[i,:]
  /// — the adds of matmul_t_a_acc's sparse path over the expanded rows, so
  /// every c element accumulates its terms in the same row order.
  void (*onehot_scatter_acc)(const std::uint8_t* kinds, const float* literals,
                             const std::uint32_t* rows, std::size_t m,
                             const float* dy, float* c, std::size_t lit_row,
                             std::size_t out);
  /// RGAT attention dots over `rows` consecutive rows of g ([rows x out]):
  ///   ss[i] = float(sum_j double(g[i,j]) * double(a_src[j]))
  ///   sd[i] = float(sum_j double(g[i,j]) * double(a_dst[j]))
  /// each sum starting at 0.0 and adding in j order. Lanes run across
  /// independent rows, so every level produces the same bits.
  void (*rgat_attention_dots)(const float* g, std::size_t rows,
                              std::size_t out, const float* a_src,
                              const float* a_dst, float* ss, float* sd);
  /// RGAT grouped attention + gated scatter over one relation's CSR arrays:
  /// per destination group, raw logits (score gather), LeakyReLU, max-shifted
  /// exp/softmax (scalar, order-pinned) and the alpha*gate-weighted scatter
  /// of source projections into pre[group_dst_global]. raw/alpha are the
  /// relation's edge blocks and ss/sd/gbuf its row blocks (all offset by
  /// the caller, indexed by local node).
  void (*rgat_attention_scatter)(const std::uint32_t* group_offsets,
                                 const std::uint32_t* group_dst,
                                 std::size_t num_groups,
                                 const std::uint32_t* nodes,
                                 const std::uint32_t* src_local,
                                 const float* gates, const float* ss,
                                 const float* sd, float slope, float* raw,
                                 float* alpha, const float* gbuf, float* pre,
                                 std::size_t out);
  /// RGAT gated scatter over a relation whose every destination group holds
  /// one edge (edge e is group e): for e in [0, num_edges) in order,
  ///   pre[nodes[group_dst[e]],:] += gates[e] * g[src_local[e],:]
  /// with g the relation's row block. A one-edge softmax gives alpha = 1.0f
  /// and 1.0f * gate is gate, so on such a relation with finite logits these
  /// are rgat_attention_scatter's multiplies and adds, bit for bit.
  void (*rgat_gated_scatter)(const std::uint32_t* group_dst,
                             const std::uint32_t* nodes,
                             const std::uint32_t* src_local,
                             const float* gates, std::size_t num_edges,
                             const float* g, float* pre, std::size_t out);
  /// The backward of rgat_gated_scatter onto the projections: for e in
  /// order, dg[src_local[e],:] += gates[e] * dpre[nodes[group_dst[e]],:] —
  /// rgat_attention_backward's alpha*gate dg scatter with alpha = 1. There
  /// its softmax backward leaves ds_src/ds_dst at +0 on such a relation
  /// (finite dscore), so the score-vector terms add nothing.
  void (*rgat_gated_gather)(const std::uint32_t* group_dst,
                            const std::uint32_t* nodes,
                            const std::uint32_t* src_local, const float* gates,
                            std::size_t num_edges, const float* dpre,
                            float* dg, std::size_t out);
  /// RGAT attention backward over one relation (AttentionGrad): the
  /// per-edge dscore dots (lanes across edges), the per-group softmax
  /// backward into ds_src/ds_dst, the alpha*gate-weighted dg scatter, then
  /// the score-vector terms dg += ds (x) a and da += ds * g (lanes across
  /// output columns).
  void (*rgat_attention_backward)(const AttentionGrad& args);
};

/// Best level this binary + CPU can run (probed once).
[[nodiscard]] SimdLevel max_supported_level();
/// True when `level` would actually execute its own code path here.
[[nodiscard]] bool level_supported(SimdLevel level);

/// The level kernels() dispatches to. Resolved once at first use:
/// PARAGRAPH_SIMD override (resolve_level semantics) over the probe.
[[nodiscard]] SimdLevel active_level();
/// Re-selects the active level (clamped to max_supported_level()). For
/// tests, benches, and the CLI — not thread-safe against running kernels.
void set_active_level(SimdLevel level);

/// Parses "scalar" | "sse2" | "neon" | "avx2" (nullopt otherwise).
[[nodiscard]] std::optional<SimdLevel> level_from_name(std::string_view name);
/// Display name of a level on this architecture.
[[nodiscard]] const char* level_name(SimdLevel level);
/// Env/CLI resolution: unknown names -> `fallback`; known names clamp to
/// max_supported_level(). Never fails — the dispatch probe degrades cleanly.
[[nodiscard]] SimdLevel resolve_level(std::string_view name,
                                      SimdLevel fallback);
/// The one stderr line printed when PARAGRAPH_SIMD=`name` does not select
/// its own level (an unknown name, or a level this CPU cannot run): names
/// the value and the level used instead. Empty when there is nothing to
/// report (unset/empty, or a supported level). Not printed when
/// set_active_level() picks the level before its first use.
[[nodiscard]] std::string override_warning(std::string_view name);

/// Kernel table of the active level / of an explicit level.
[[nodiscard]] const KernelTable& kernels();
[[nodiscard]] const KernelTable& kernels_for(SimdLevel level);

// The storage alignment contract (kAlignBytes, padded_floats,
// AlignedAllocator) lives in tensor/align.hpp so Matrix doesn't depend on
// this dispatch header.

}  // namespace pg::tensor::simd
