// Relational Graph Attention convolution (Busbridge et al. 2019, the
// within-relation "WIRGAT" variant the paper adapts: attention logits are
// computed per edge type and normalised over the incoming edges of the same
// type).
//
// For relation r with projection W_r and attention vectors a_src/a_dst:
//   g_i   = W_r h_i
//   e_uv  = LeakyReLU(a_src . g_u + a_dst . g_v)           (per edge u->v)
//   alpha = softmax over {e_uv : u in N_r(v)}
//   m_v  += sum_u alpha_uv * gate_uv * g_u
// Output: ReLU(sum_r m_v + W_self h_v + b).
//
// Where every destination of a relation has one in-edge (in the ParaGraph
// corpus every relation but Ref), the softmax over one element is 1, so
// m_v = gate_uv * g_u: such a relation runs a plain gated scatter, computes
// no logits, and its a_src/a_dst get no gradient.
//
// Such a relation reads g only at its sources, so the layer projects the
// rows a relation sends from (single-edge, through the relation's sender
// index) or touches (attention). The backward runs dW_r and dx over the
// same rows. That moves no bit: a dropped forward row was never read, and
// a dropped backward row has dg = +0, so each dropped term, x * (+0) or
// (+0) * W, is +-0 added to an accumulator that started at +0 — and an
// IEEE sum that starts at +0 is never -0, so adding +-0 there is the
// identity. A dx element may now keep -0 where it used to become +0; it
// only flows into such accumulators. The one exception is a non-finite x
// or W: the dropped 0 * inf terms were NaN, and they no longer appear.
// A single-edge relation without its sender index (a RelationalGraph from
// from_buckets or a reader, not packed through model::GraphBatch) fails
// the layer's check.
//
// `gate` carries the ParaGraph edge weight (MinMax-scaled) for Child edges
// and is 1 elsewhere — the graph-side realisation of W in Eq. (2).
//
// The first layer's input is the node features, which are one-hot: a kind
// byte and a literal per node (OneHotRows). Its projections are row reads
// of W_self/W_r rather than matmuls; the later layers take dense rows.
//
// All buffers — the output, the cached activations, and every scratch
// matrix — are borrowed from the caller's Workspace, so a warmed-up
// forward/backward pair performs zero heap allocations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/relational_graph.hpp"
#include "support/rng.hpp"
#include "tensor/matrix.hpp"
#include "tensor/workspace.hpp"

namespace pg::nn {

/// One-hot input rows without the zeros: row i is the one-hot of kinds[i]
/// over the first in-1 columns, with literals[i] in the last column (the
/// node features of model/encoding.hpp). Borrowed views.
struct OneHotRows {
  std::span<const std::uint8_t> kinds;
  std::span<const float> literals;

  [[nodiscard]] std::size_t rows() const { return kinds.size(); }
};

class RgatConv {
 public:
  RgatConv(std::size_t in_features, std::size_t out_features,
           std::size_t num_relations, pg::Rng& rng, bool apply_relu = true,
           float leaky_slope = 0.2f);

  /// Everything the backward pass needs from one forward call. All members
  /// point into the Workspace the forward was given (plus the borrowed
  /// input), so a Cache is valid until that workspace's next reset().
  /// Per-relation data is concatenated: relation r's block starts at the
  /// running sum of earlier relations' projected-row counts (g: senders
  /// for a single-edge relation, active nodes for an attention one), or of
  /// earlier attention relations' edge counts (raw, alpha) — those with a
  /// multi-edge destination group; the single-edge ones have no logits.
  struct Cache {
    const tensor::Matrix* x = nullptr;  // borrowed dense input [N x in]
    OneHotRows one_hot;                 // borrowed one-hot input (x null)
    tensor::Matrix* g = nullptr;        // [sum_r projected rows x out]
    tensor::Matrix* raw = nullptr;    // [1 x attention edges] pre-LeakyReLU logits
    tensor::Matrix* alpha = nullptr;  // [1 x attention edges] attention weights
    tensor::Matrix* pre = nullptr;      // pre-activation output [N x out]
  };

  /// Output lives in `ws` until its next reset().
  const tensor::Matrix& forward(const tensor::Matrix& x,
                                const RelationalGraph& graph, Cache& cache,
                                tensor::Workspace& ws) const;

  /// The same forward over one-hot rows (kinds < in - 1): each projection
  /// adds the kind's weight row, then the literal times the last row when
  /// the literal is nonzero — the adds the dense forward performs on the
  /// expanded rows, so the output is bitwise that of forward(dense x).
  const tensor::Matrix& forward(const OneHotRows& x,
                                const RelationalGraph& graph, Cache& cache,
                                tensor::Workspace& ws) const;

  /// Accumulates parameter gradients into `grads` (layout = parameters())
  /// and returns dL/dx (borrowed from `ws`). The cache's workspace must not
  /// have been reset since the matching (dense) forward.
  tensor::Matrix& backward(const tensor::Matrix& dy, const RelationalGraph& graph,
                           const Cache& cache, std::span<tensor::Matrix> grads,
                           tensor::Workspace& ws) const;

  /// backward() without dL/dx: the same parameter gradients, bit for bit,
  /// for a layer whose input needs no gradient (the first layer's constant
  /// node features). After a one-hot forward, dW_self and dW_r are row
  /// scatters in node order (the adds of the dense dW products).
  void backward_params(const tensor::Matrix& dy, const RelationalGraph& graph,
                       const Cache& cache, std::span<tensor::Matrix> grads,
                       tensor::Workspace& ws) const;

  /// Parameter layout: for each relation [W_r, a_src_r, a_dst_r], then
  /// W_self, b.
  [[nodiscard]] std::vector<tensor::Matrix*> parameters();
  [[nodiscard]] std::vector<const tensor::Matrix*> parameters() const;
  [[nodiscard]] std::size_t num_params() const { return 3 * num_relations_ + 2; }

  [[nodiscard]] std::size_t in_features() const { return in_; }
  [[nodiscard]] std::size_t out_features() const { return out_; }
  [[nodiscard]] std::size_t num_relations() const { return num_relations_; }

 private:
  /// The shared forward body once cache.x / cache.one_hot is set.
  const tensor::Matrix& forward_rows(std::size_t n,
                                     const RelationalGraph& graph,
                                     Cache& cache, tensor::Workspace& ws) const;
  /// The shared backward; dL/dx is written into *dx unless dx is null.
  void backward_into(const tensor::Matrix& dy, const RelationalGraph& graph,
                     const Cache& cache, std::span<tensor::Matrix> grads,
                     tensor::Matrix* dx, tensor::Workspace& ws) const;

  std::size_t in_;
  std::size_t out_;
  std::size_t num_relations_;
  bool apply_relu_;
  float leaky_slope_;
  std::vector<tensor::Matrix> w_rel_;   // [in x out] each
  std::vector<tensor::Matrix> a_src_;   // [1 x out] each
  std::vector<tensor::Matrix> a_dst_;   // [1 x out] each
  tensor::Matrix w_self_;               // [in x out]
  tensor::Matrix b_;                    // [1 x out]
};

}  // namespace pg::nn
