// RGAT convolution: per-relation projections, additive attention with
// LeakyReLU + softmax over incoming edges, and the matching backward — all
// scratch drawn from the caller's Workspace, gather/scatter fused into the
// projection loops so no per-relation temporaries are materialised. The
// CSR/SoA relation layout keeps the edge loops on contiguous u32/f32
// streams; a block-diagonal (batched) RelationalGraph runs through the very
// same code paths, which is what makes the fused GraphBatch forward
// bitwise-identical to per-graph execution.
//
// The hot per-relation bodies — the fused gather->project, the grouped
// attention softmax + gated scatter walking the CSR group_offsets[] /
// group_dst[] arrays, and the backward's gathered dW_r and scattered dx
// products — live in the runtime-dispatched SIMD kernel layer
// (tensor/simd.hpp): width-templated register accumulators, vector loads
// across the independent output lanes, reduction order pinned to the scalar
// reference so every dispatch level is bitwise-identical.
#include "nn/rgat.hpp"

#include <cmath>

#include "nn/activation.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "tensor/init.hpp"
#include "tensor/simd.hpp"

namespace pg::nn {
namespace {

// Intra-batch split grains for the forward pass (see support/parallel.hpp:
// the helper stays serial inside an enclosing parallel region, so these only
// fire when a big fused chunk runs alone — the engine's one-giant-graph
// case). Every split partitions independent output rows/groups, so the
// parallel result is bitwise-equal to the serial one.
constexpr std::size_t kGatherRowGrain = 64;   // rows of fused gather+project
constexpr std::size_t kBiasRowGrain = 2048;   // rows of the bias add
constexpr std::size_t kScatterGroupGrain = 128;  // destination groups

/// Totals over all relations: edges and locally-active nodes. These define
/// the concatenated-block layout shared by forward and backward.
void relation_totals(const RelationalGraph& graph, std::size_t* total_edges,
                     std::size_t* total_active) {
  *total_edges = 0;
  *total_active = 0;
  for (const RelationEdges& rel : graph.relations) {
    *total_edges += rel.num_edges();
    *total_active += rel.num_active_nodes();
  }
}

}  // namespace

RgatConv::RgatConv(std::size_t in_features, std::size_t out_features,
                   std::size_t num_relations, pg::Rng& rng, bool apply_relu,
                   float leaky_slope)
    : in_(in_features),
      out_(out_features),
      num_relations_(num_relations),
      apply_relu_(apply_relu),
      leaky_slope_(leaky_slope),
      w_self_(in_features, out_features),
      b_(1, out_features) {
  check(num_relations >= 1, "RgatConv needs at least one relation");
  w_rel_.reserve(num_relations);
  a_src_.reserve(num_relations);
  a_dst_.reserve(num_relations);
  for (std::size_t r = 0; r < num_relations; ++r) {
    w_rel_.emplace_back(in_features, out_features);
    tensor::glorot_uniform(w_rel_.back(), rng);
    a_src_.emplace_back(1, out_features);
    tensor::glorot_uniform(a_src_.back(), rng);
    a_dst_.emplace_back(1, out_features);
    tensor::glorot_uniform(a_dst_.back(), rng);
  }
  tensor::glorot_uniform(w_self_, rng);
}

const tensor::Matrix& RgatConv::forward(const tensor::Matrix& x,
                                        const RelationalGraph& graph,
                                        Cache& cache,
                                        tensor::Workspace& ws) const {
  check(x.cols() == in_, "RgatConv::forward: feature dim mismatch");
  check(x.rows() == graph.num_nodes, "RgatConv::forward: node count mismatch");
  check(graph.relations.size() == num_relations_,
        "RgatConv::forward: relation count mismatch");

  std::size_t total_edges = 0;
  std::size_t total_active = 0;
  relation_totals(graph, &total_edges, &total_active);

  cache.x = &x;
  // g accumulates (+=) and must start zeroed; raw/alpha/pre/s_src/s_dst are
  // fully written before any read, so they skip the acquire memset.
  cache.g = &ws.acquire(total_active, out_);
  cache.raw = &ws.acquire_uninit(1, total_edges);
  cache.alpha = &ws.acquire_uninit(1, total_edges);
  cache.pre = &ws.acquire_uninit(x.rows(), out_);

  tensor::Matrix& pre = *cache.pre;
  tensor::matmul_into(pre, x, w_self_);
  parallel_for_blocks(pre.rows(), kBiasRowGrain, [&](std::size_t lo,
                                                     std::size_t hi) {
    tensor::simd::kernels().add_bias_rows(pre.data().data() + lo * out_,
                                          b_.data().data(), hi - lo, out_);
  });

  tensor::Matrix& s_src = ws.acquire_uninit(1, total_active);
  tensor::Matrix& s_dst = ws.acquire_uninit(1, total_active);

  const float* xp = x.data().data();
  float* gp = cache.g->data().data();
  float* prep = pre.data().data();
  float* ss = s_src.data().data();
  float* sd = s_dst.data().data();
  float* rawp = cache.raw->data().data();
  float* alphap = cache.alpha->data().data();

  const tensor::simd::KernelTable& kernels = tensor::simd::kernels();
  std::size_t edge_off = 0;
  std::size_t row_off = 0;
  for (std::size_t r = 0; r < num_relations_; ++r) {
    const RelationEdges& rel = graph.relations[r];
    if (rel.empty()) continue;
    const std::size_t na = rel.num_active_nodes();

    // Project only the rows this relation touches, straight into the
    // relation's block of the concatenated cache (fused gather + matmul;
    // the g block starts zero-filled, the kernel accumulates into it), then
    // both attention dots in one pass over g (independent double
    // accumulators; a j-reduction, so it stays in scalar program order at
    // every dispatch level). Row-range split: each block owns a disjoint
    // slice of g/ss/sd rows, so the cut never changes any value.
    const float* asrc = a_src_[r].data().data();
    const float* adst = a_dst_[r].data().data();
    parallel_for_blocks(na, kGatherRowGrain, [&](std::size_t lo,
                                                 std::size_t hi) {
      kernels.rgat_gather_project(rel.nodes.data() + lo, hi - lo, xp, in_,
                                  w_rel_[r].data().data(), gp, out_,
                                  row_off + lo);
      for (std::size_t i = lo; i < hi; ++i) {
        const float* __restrict__ g_row = gp + (row_off + i) * out_;
        double acc_src = 0.0;
        double acc_dst = 0.0;
        for (std::size_t j = 0; j < out_; ++j) {
          acc_src += static_cast<double>(g_row[j]) * asrc[j];
          acc_dst += static_cast<double>(g_row[j]) * adst[j];
        }
        ss[row_off + i] = static_cast<float>(acc_src);
        sd[row_off + i] = static_cast<float>(acc_dst);
      }
    });

    // Grouped softmax + gated scatter over the relation's CSR arrays.
    // Group-range split: group_offsets holds absolute within-relation edge
    // indices and group_dst is unique per relation, so a sub-range call
    // touches disjoint raw/alpha slots and disjoint pre rows. The relation
    // loop itself stays serial — different relations accumulate into the
    // same destination rows, and that sum's order is part of the bitwise
    // contract.
    parallel_for_blocks(
        rel.num_groups(), kScatterGroupGrain,
        [&](std::size_t g_lo, std::size_t g_hi) {
          kernels.rgat_attention_scatter(
              rel.group_offsets.data() + g_lo, rel.group_dst.data() + g_lo,
              g_hi - g_lo, rel.nodes.data(), rel.src_local.data(),
              rel.gate.data(), ss, sd, leaky_slope_, rawp + edge_off,
              alphap + edge_off, gp, prep, out_, row_off);
        });

    edge_off += rel.num_edges();
    row_off += na;
  }

  if (!apply_relu_) return pre;
  tensor::Matrix& y = ws.acquire_uninit(x.rows(), out_);
  relu_into(y, pre);
  return y;
}

tensor::Matrix& RgatConv::backward(const tensor::Matrix& dy,
                                   const RelationalGraph& graph,
                                   const Cache& cache,
                                   std::span<tensor::Matrix> grads,
                                   tensor::Workspace& ws) const {
  check(cache.x != nullptr, "RgatConv::backward: cache without forward");
  tensor::Matrix& dx = ws.acquire_uninit(cache.x->rows(), in_);
  backward_into(dy, graph, cache, grads, &dx, ws);
  return dx;
}

void RgatConv::backward_params(const tensor::Matrix& dy,
                               const RelationalGraph& graph,
                               const Cache& cache,
                               std::span<tensor::Matrix> grads,
                               tensor::Workspace& ws) const {
  backward_into(dy, graph, cache, grads, nullptr, ws);
}

void RgatConv::backward_into(const tensor::Matrix& dy,
                             const RelationalGraph& graph, const Cache& cache,
                             std::span<tensor::Matrix> grads,
                             tensor::Matrix* dx,
                             tensor::Workspace& ws) const {
  check(grads.size() == num_params(), "RgatConv::backward: bad grad span");
  check(cache.x != nullptr, "RgatConv::backward: cache without forward");
  const tensor::Matrix& x = *cache.x;
  const std::size_t n = x.rows();
  check(dy.rows() == n && dy.cols() == out_, "RgatConv::backward: dy shape");

  const tensor::Matrix* dpre = &dy;
  if (apply_relu_) {
    tensor::Matrix& masked = ws.acquire_uninit(n, out_);
    relu_backward_into(masked, dy, *cache.pre);
    dpre = &masked;
  }

  // Self-connection + bias. The relation loop scatters W_r^T products on
  // top of dx, reading each W_r transposed (the kernel's lane layout).
  tensor::Matrix* w_t = nullptr;
  if (dx != nullptr) {
    tensor::matmul_transpose_b_into(*dx, *dpre, w_self_);
    w_t = &ws.acquire_uninit(out_, in_);
  }
  tensor::matmul_transpose_a_acc(grads[3 * num_relations_], x, *dpre);
  tensor::column_sums_acc(grads[3 * num_relations_ + 1], *dpre);

  std::size_t total_edges = 0;
  std::size_t total_active = 0;
  relation_totals(graph, &total_edges, &total_active);

  // dg/ds_* accumulate (+=) and need the zero fill; dscore is assigned per
  // edge before its group reads it back.
  tensor::Matrix& dg = ws.acquire(total_active, out_);
  tensor::Matrix& ds_src_m = ws.acquire(1, total_active);
  tensor::Matrix& ds_dst_m = ws.acquire(1, total_active);
  tensor::Matrix& dscore_m = ws.acquire_uninit(1, total_edges);
  // LeakyReLU gradients for all edges in one dispatched elementwise pass —
  // the same values the group loop used to compute one edge at a time.
  tensor::Matrix& lrg_m = ws.acquire_uninit(1, total_edges);
  const tensor::simd::KernelTable& kernels = tensor::simd::kernels();
  kernels.leaky_relu_grad(lrg_m.data().data(), cache.raw->data().data(),
                          leaky_slope_, total_edges);

  std::size_t edge_off = 0;
  std::size_t row_off = 0;
  for (std::size_t r = 0; r < num_relations_; ++r) {
    const RelationEdges& rel = graph.relations[r];
    if (rel.empty()) continue;
    const std::size_t na = rel.num_active_nodes();
    auto lrg = lrg_m.row_span(0);
    auto alpha = cache.alpha->row_span(0);
    auto ds_src = ds_src_m.row_span(0);
    auto ds_dst = ds_dst_m.row_span(0);
    auto dscore = dscore_m.row_span(0);
    const std::uint32_t* src_local = rel.src_local.data();
    const float* gates = rel.gate.data();

    for (std::size_t group = 0; group < rel.num_groups(); ++group) {
      const std::size_t lo = rel.group_offsets[group];
      const std::size_t hi = rel.group_offsets[group + 1];
      const std::uint32_t v_local = rel.group_dst[group];
      const std::uint32_t v_global = rel.nodes[v_local];
      auto dpre_row = dpre->row_span(v_global);

      // dscore_e = d(out_v) . (gate_e * g_src); softmax backward within the
      // group; message-path gradient back to g_src.
      double weighted_sum = 0.0;  // sum_e alpha_e * dscore_e
      for (std::size_t e = lo; e < hi; ++e) {
        const std::uint32_t src = src_local[e];
        const float* __restrict__ g_row =
            cache.g->data().data() + (row_off + src) * out_;
        double acc = 0.0;
        for (std::size_t j = 0; j < out_; ++j)
          acc += static_cast<double>(dpre_row[j]) * g_row[j];
        dscore[edge_off + e] = gates[e] * static_cast<float>(acc);
        weighted_sum +=
            static_cast<double>(alpha[edge_off + e]) * dscore[edge_off + e];
        const float scale = alpha[edge_off + e] * gates[e];
        auto dg_row = dg.row_span(row_off + src);
        for (std::size_t j = 0; j < out_; ++j) dg_row[j] += scale * dpre_row[j];
      }
      for (std::size_t e = lo; e < hi; ++e) {
        const float dlogit =
            alpha[edge_off + e] *
            (dscore[edge_off + e] - static_cast<float>(weighted_sum));
        const float draw = dlogit * lrg[edge_off + e];
        ds_src[row_off + src_local[e]] += draw;
        ds_dst[row_off + v_local] += draw;
      }
    }

    // s = g . a  =>  dg += ds outer a; da += sum_i ds[i] * g_i.
    auto a_src_row = a_src_[r].row_span(0);
    auto a_dst_row = a_dst_[r].row_span(0);
    auto da_src = grads[3 * r + 1].row_span(0);
    auto da_dst = grads[3 * r + 2].row_span(0);
    for (std::size_t i = 0; i < na; ++i) {
      if (ds_src[row_off + i] != 0.0f) {
        auto dg_row = dg.row_span(row_off + i);
        auto g_row = cache.g->row_span(row_off + i);
        for (std::size_t j = 0; j < out_; ++j) {
          dg_row[j] += ds_src[row_off + i] * a_src_row[j];
          da_src[j] += ds_src[row_off + i] * g_row[j];
        }
      }
      if (ds_dst[row_off + i] != 0.0f) {
        auto dg_row = dg.row_span(row_off + i);
        auto g_row = cache.g->row_span(row_off + i);
        for (std::size_t j = 0; j < out_; ++j) {
          dg_row[j] += ds_dst[row_off + i] * a_dst_row[j];
          da_dst[j] += ds_dst[row_off + i] * g_row[j];
        }
      }
    }

    // g = gather(x) W_r  =>  dW_r += gather(x)^T dg (row gather, no
    // x_local); dx[global] += (dg W_r^T)[local] (row scatter, no dx_local;
    // a relation's active nodes are distinct).
    const float* dg_block = dg.data().data() + row_off * out_;
    kernels.matmul_t_a_acc(x.data().data(), rel.nodes.data(), dg_block,
                           grads[3 * r].data().data(), in_, na, out_);
    if (dx != nullptr) {
      tensor::transpose_into(*w_t, w_rel_[r]);
      kernels.matmul_t_b(dg_block, w_t->data().data(), dx->data().data(),
                         rel.nodes.data(), na, out_, in_,
                         /*accumulate=*/true);
    }

    edge_off += rel.num_edges();
    row_off += na;
  }
}

std::vector<tensor::Matrix*> RgatConv::parameters() {
  std::vector<tensor::Matrix*> params;
  params.reserve(num_params());
  for (std::size_t r = 0; r < num_relations_; ++r) {
    params.push_back(&w_rel_[r]);
    params.push_back(&a_src_[r]);
    params.push_back(&a_dst_[r]);
  }
  params.push_back(&w_self_);
  params.push_back(&b_);
  return params;
}

std::vector<const tensor::Matrix*> RgatConv::parameters() const {
  std::vector<const tensor::Matrix*> params;
  params.reserve(num_params());
  for (std::size_t r = 0; r < num_relations_; ++r) {
    params.push_back(&w_rel_[r]);
    params.push_back(&a_src_[r]);
    params.push_back(&a_dst_[r]);
  }
  params.push_back(&w_self_);
  params.push_back(&b_);
  return params;
}

}  // namespace pg::nn
