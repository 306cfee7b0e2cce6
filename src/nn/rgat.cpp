// RGAT convolution: per-relation projections, additive attention with
// LeakyReLU + softmax over incoming edges, and the matching backward — all
// scratch drawn from the caller's Workspace, gather/scatter fused into the
// projection loops so no per-relation temporaries are materialised. The
// CSR/SoA relation layout keeps the edge loops on contiguous u32/f32
// streams; a block-diagonal (batched) RelationalGraph runs through the very
// same code paths, which is what makes the fused GraphBatch forward
// bitwise-identical to per-graph execution.
//
// Every hot per-relation body lives in the runtime-dispatched SIMD kernel
// layer (tensor/simd.hpp): the fused gather->project (sparse rows walked by
// nonzero mask, dense rows two at a time), the first layer's one-hot
// projection and dW row scatter (a kind byte and a literal per node), the
// attention dots, the grouped softmax + gated scatter walking the CSR
// group_offsets[] / group_dst[] arrays, the attention backward, and the
// backward's gathered dW_r and scattered dx products. A relation whose
// every destination has one in-edge (RelationEdges::all_single_edge) skips
// attention altogether: its one-edge softmax weighs the edge 1.0f, so the
// dots, the softmax and the attention backward reach no output, and a
// plain gated scatter (forward) and gather (backward) do the same adds
// bit for bit. Such a relation also projects and differentiates only the
// rows it sends from (its sender index, nn/relational_graph.hpp; rgat.hpp
// says why the bits do not move). Scratch for logits and scores covers
// only the attention relations. Lanes run across independent output
// columns or across independent rows (the dots: each lane one row's double
// sum in j order), reduction order pinned to the scalar reference, so
// every dispatch level is bitwise-identical. This file only sequences
// them.
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

/// The global rows of relation `rel`'s g/dg block: a single-edge relation
/// reads only its senders' projections (src_nodes, which its edges index
/// through src_slot), an attention relation every active node's (nodes,
/// indexed through src_local and group_dst).
std::span<const std::uint32_t> projected_rows(const RelationEdges& rel) {
  return rel.all_single_edge() ? rel.src_nodes : rel.nodes;
}

/// Sizes of the concatenated per-relation blocks shared by forward and
/// backward: g/dg rows cover every relation's projected_rows; the
/// attention scratch (raw/alpha/lrg/dscore edges, s_*/ds_* rows) only the
/// relations with a multi-edge destination group.
struct RelationTotals {
  std::size_t projected = 0;
  std::size_t attention_edges = 0;
  std::size_t attention_active = 0;
};

RelationTotals relation_totals(const RelationalGraph& graph) {
  RelationTotals t;
  for (const RelationEdges& rel : graph.relations) {
    check(rel.has_sender_index(),
          "RgatConv: single-edge relation without its sender index (pack "
          "the graph through GraphBatch or build it with from_edges)");
    t.projected += projected_rows(rel).size();
    if (rel.all_single_edge()) continue;
    t.attention_edges += rel.num_edges();
    t.attention_active += rel.num_active_nodes();
  }
  return t;
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
  cache.x = &x;
  cache.one_hot = {};
  return forward_rows(x.rows(), graph, cache, ws);
}

const tensor::Matrix& RgatConv::forward(const OneHotRows& x,
                                        const RelationalGraph& graph,
                                        Cache& cache,
                                        tensor::Workspace& ws) const {
  check(x.literals.size() == x.rows(),
        "RgatConv::forward: kind/literal count mismatch");
  check(x.rows() == graph.num_nodes, "RgatConv::forward: node count mismatch");
  // The last weight row is the literal's; every kind must name a row above
  // it (the kernels index W by kind unchecked).
  for (const std::uint8_t kind : x.kinds)
    check(kind + 1u < in_, "RgatConv::forward: node kind out of range");
  cache.x = nullptr;
  cache.one_hot = x;
  return forward_rows(x.rows(), graph, cache, ws);
}

const tensor::Matrix& RgatConv::forward_rows(std::size_t n,
                                             const RelationalGraph& graph,
                                             Cache& cache,
                                             tensor::Workspace& ws) const {
  check(graph.relations.size() == num_relations_,
        "RgatConv::forward: relation count mismatch");

  const RelationTotals totals = relation_totals(graph);

  // g accumulates (+=) and must start zeroed, as must pre for the one-hot
  // self projection; raw/alpha/s_src/s_dst and the dense matmul's pre are
  // fully written before any read, so they skip the acquire memset.
  const tensor::Matrix* x = cache.x;
  const OneHotRows& one_hot = cache.one_hot;
  const std::size_t lit_row = in_ - 1;  // the one-hot input's literal row
  cache.g = &ws.acquire(totals.projected, out_);
  cache.raw = &ws.acquire_uninit(1, totals.attention_edges);
  cache.alpha = &ws.acquire_uninit(1, totals.attention_edges);
  cache.pre = x != nullptr ? &ws.acquire_uninit(n, out_) : &ws.acquire(n, out_);

  const tensor::simd::KernelTable& kernels = tensor::simd::kernels();
  tensor::Matrix& pre = *cache.pre;
  float* prep = pre.data().data();
  if (x != nullptr) {
    tensor::matmul_into(pre, *x, w_self_);
  } else {
    parallel_for_blocks(n, kGatherRowGrain, [&](std::size_t lo,
                                                std::size_t hi) {
      kernels.onehot_project(one_hot.kinds.data() + lo,
                             one_hot.literals.data() + lo, nullptr, hi - lo,
                             w_self_.data().data(), lit_row, prep + lo * out_,
                             out_);
    });
  }
  parallel_for_blocks(pre.rows(), kBiasRowGrain, [&](std::size_t lo,
                                                     std::size_t hi) {
    tensor::simd::kernels().add_bias_rows(pre.data().data() + lo * out_,
                                          b_.data().data(), hi - lo, out_);
  });

  tensor::Matrix& s_src = ws.acquire_uninit(1, totals.attention_active);
  tensor::Matrix& s_dst = ws.acquire_uninit(1, totals.attention_active);

  float* gp = cache.g->data().data();
  float* ss = s_src.data().data();
  float* sd = s_dst.data().data();
  float* rawp = cache.raw->data().data();
  float* alphap = cache.alpha->data().data();

  std::size_t row_off = 0;       // into g
  std::size_t att_edge_off = 0;  // into raw/alpha
  std::size_t att_row_off = 0;   // into s_src/s_dst
  for (std::size_t r = 0; r < num_relations_; ++r) {
    const RelationEdges& rel = graph.relations[r];
    if (rel.empty()) continue;
    const std::span<const std::uint32_t> rows = projected_rows(rel);
    const std::size_t na = rows.size();
    const bool attend = !rel.all_single_edge();
    float* g_block = gp + row_off * out_;

    // Project only the rows this relation sends from (single-edge) or
    // touches (attention), straight into the relation's block of the
    // concatenated cache (fused gather + matmul; the g block starts
    // zero-filled, the kernel accumulates into it), then
    // for an attention relation both attention dots over the rows just
    // projected, while they are still in L1 (lanes across rows, each row's
    // double sum in j order, so every dispatch level agrees). Row-range
    // split: each block owns a disjoint slice of g/ss/sd rows, so the cut
    // never changes any value.
    const float* asrc = a_src_[r].data().data();
    const float* adst = a_dst_[r].data().data();
    const float* w = w_rel_[r].data().data();
    parallel_for_blocks(na, kGatherRowGrain, [&](std::size_t lo,
                                                 std::size_t hi) {
      if (x != nullptr)
        kernels.rgat_gather_project(rows.data() + lo, hi - lo,
                                    x->data().data(), in_, w, gp, out_,
                                    row_off + lo);
      else
        kernels.onehot_project(one_hot.kinds.data(), one_hot.literals.data(),
                               rows.data() + lo, hi - lo, w, lit_row,
                               g_block + lo * out_, out_);
      if (attend)
        kernels.rgat_attention_dots(g_block + lo * out_, hi - lo, out_, asrc,
                                    adst, ss + att_row_off + lo,
                                    sd + att_row_off + lo);
    });

    // Grouped softmax + gated scatter over the relation's CSR arrays, or
    // the gated scatter alone when every group is one edge (edge g is then
    // group g, so a group range is the same edge range). Group-range
    // split: group_offsets holds absolute within-relation edge indices and
    // group_dst is unique per relation, so a sub-range call touches
    // disjoint raw/alpha slots and disjoint pre rows. The relation loop
    // itself stays serial — different relations accumulate into the same
    // destination rows, and that sum's order is part of the bitwise
    // contract.
    parallel_for_blocks(
        rel.num_groups(), kScatterGroupGrain,
        [&](std::size_t g_lo, std::size_t g_hi) {
          if (attend)
            kernels.rgat_attention_scatter(
                rel.group_offsets.data() + g_lo, rel.group_dst.data() + g_lo,
                g_hi - g_lo, rel.nodes.data(), rel.src_local.data(),
                rel.gate.data(), ss + att_row_off, sd + att_row_off,
                leaky_slope_, rawp + att_edge_off, alphap + att_edge_off,
                g_block, prep, out_);
          else
            kernels.rgat_gated_scatter(
                rel.group_dst.data() + g_lo, rel.nodes.data(),
                rel.src_slot.data() + g_lo, rel.gate.data() + g_lo,
                g_hi - g_lo, g_block, prep, out_);
        });

    row_off += na;
    if (attend) {
      att_edge_off += rel.num_edges();
      att_row_off += na;
    }
  }

  if (!apply_relu_) return pre;
  tensor::Matrix& y = ws.acquire_uninit(n, out_);
  relu_into(y, pre);
  return y;
}

tensor::Matrix& RgatConv::backward(const tensor::Matrix& dy,
                                   const RelationalGraph& graph,
                                   const Cache& cache,
                                   std::span<tensor::Matrix> grads,
                                   tensor::Workspace& ws) const {
  check(cache.x != nullptr, "RgatConv::backward: no dense forward cached");
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
  check(cache.pre != nullptr, "RgatConv::backward: cache without forward");
  const tensor::Matrix* x = cache.x;
  const OneHotRows& one_hot = cache.one_hot;
  const std::size_t lit_row = in_ - 1;
  const std::size_t n = cache.pre->rows();
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
  const tensor::simd::KernelTable& kernels = tensor::simd::kernels();
  if (x != nullptr)
    tensor::matmul_transpose_a_acc(grads[3 * num_relations_], *x, *dpre);
  else
    kernels.onehot_scatter_acc(one_hot.kinds.data(), one_hot.literals.data(),
                               nullptr, n, dpre->data().data(),
                               grads[3 * num_relations_].data().data(),
                               lit_row, out_);
  tensor::column_sums_acc(grads[3 * num_relations_ + 1], *dpre);

  const RelationTotals totals = relation_totals(graph);

  // dg/ds_* accumulate (+=) and need the zero fill; dscore is assigned per
  // edge before its group reads it back.
  tensor::Matrix& dg = ws.acquire(totals.projected, out_);
  tensor::Matrix& ds_src_m = ws.acquire(1, totals.attention_active);
  tensor::Matrix& ds_dst_m = ws.acquire(1, totals.attention_active);
  tensor::Matrix& dscore_m = ws.acquire_uninit(1, totals.attention_edges);
  // LeakyReLU gradients for all attention edges in one dispatched
  // elementwise pass — the same values the group loop used to compute one
  // edge at a time.
  tensor::Matrix& lrg_m = ws.acquire_uninit(1, totals.attention_edges);
  kernels.leaky_relu_grad(lrg_m.data().data(), cache.raw->data().data(),
                          leaky_slope_, totals.attention_edges);

  std::size_t row_off = 0;
  std::size_t att_edge_off = 0;
  std::size_t att_row_off = 0;
  for (std::size_t r = 0; r < num_relations_; ++r) {
    const RelationEdges& rel = graph.relations[r];
    if (rel.empty()) continue;
    const std::span<const std::uint32_t> rows = projected_rows(rel);
    const std::size_t na = rows.size();
    float* dg_block = dg.data().data() + row_off * out_;
    if (rel.all_single_edge()) {
      // alpha = 1: dg[src] += gate * dpre[v]; a and da receive nothing.
      kernels.rgat_gated_gather(rel.group_dst.data(), rel.nodes.data(),
                                rel.src_slot.data(), rel.gate.data(),
                                rel.num_edges(), dpre->data().data(),
                                dg_block, out_);
    } else {
      // The attention backward: dscore per edge, the softmax backward into
      // ds_src/ds_dst, the alpha*gate dg scatter, then dg += ds (x) a and
      // da += ds * g (tensor/simd.hpp, AttentionGrad).
      tensor::simd::AttentionGrad args;
      args.group_offsets = rel.group_offsets.data();
      args.group_dst = rel.group_dst.data();
      args.num_groups = rel.num_groups();
      args.nodes = rel.nodes.data();
      args.src_local = rel.src_local.data();
      args.num_active = na;
      args.out = out_;
      args.gates = rel.gate.data();
      args.alpha = cache.alpha->data().data() + att_edge_off;
      args.lrg = lrg_m.data().data() + att_edge_off;
      args.dpre = dpre->data().data();
      args.g = cache.g->data().data() + row_off * out_;
      args.a_src = a_src_[r].data().data();
      args.a_dst = a_dst_[r].data().data();
      args.dscore = dscore_m.data().data() + att_edge_off;
      args.dg = dg_block;
      args.ds_src = ds_src_m.data().data() + att_row_off;
      args.ds_dst = ds_dst_m.data().data() + att_row_off;
      args.da_src = grads[3 * r + 1].data().data();
      args.da_dst = grads[3 * r + 2].data().data();
      kernels.rgat_attention_backward(args);
      att_edge_off += rel.num_edges();
      att_row_off += na;
    }

    // g = gather(x) W_r  =>  dW_r += gather(x)^T dg (row gather, no
    // x_local; for one-hot rows a scatter of dg rows onto kind rows);
    // dx[global] += (dg W_r^T)[local] (row scatter, no dx_local; a
    // relation's projected rows are distinct).
    if (x != nullptr)
      kernels.matmul_t_a_acc(x->data().data(), rows.data(), dg_block,
                             grads[3 * r].data().data(), in_, na, out_);
    else
      kernels.onehot_scatter_acc(one_hot.kinds.data(),
                                 one_hot.literals.data(), rows.data(), na,
                                 dg_block, grads[3 * r].data().data(),
                                 lit_row, out_);
    if (dx != nullptr) {
      tensor::transpose_into(*w_t, w_rel_[r]);
      kernels.matmul_t_b(dg_block, w_t->data().data(), dx->data().data(),
                         rows.data(), na, out_, in_, /*accumulate=*/true);
    }

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
