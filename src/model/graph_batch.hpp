// GraphBatch: packs B encoded graphs into one block-diagonal relational
// graph so the model can run a single fused forward (one projection pass per
// relation over the concatenated rows it sends from (single-edge) or
// touches (attention), one segmented softmax/read-out) instead of B small
// ones. Packing is also where a single-edge relation gets its sender index
// (nn/relational_graph.hpp): stored graphs never carry one, so every graph
// reaches the RGAT layer through a GraphBatch, a one-graph one included.
//
// The packing is exact, not approximate: each graph's nodes occupy a
// contiguous global-id block [node_offsets()[b], node_offsets()[b+1]), and
// every relation's CSR arrays are the per-graph arrays concatenated with
// node/row/edge offsets applied. Because the RGAT kernels only ever combine
// rows reachable through a relation's edges — and no edge crosses a block
// boundary — the fused forward performs, per graph, exactly the same
// floating-point operations in exactly the same order as a per-graph
// forward: predictions are bitwise-identical (engine_test pins this).
//
// All buffers are grow-only (vector capacity is retained across pack()
// calls), so a warmed-up pack performs zero heap allocations.
#pragma once

#include <span>
#include <vector>

#include "model/encoding.hpp"
#include "nn/relational_graph.hpp"

namespace pg::model {

class GraphBatch {
 public:
  /// Re-fills the batch from `graphs` (pointers stay borrowed only for the
  /// duration of the call). Every graph must carry the same relation count.
  void pack(std::span<const EncodedGraph* const> graphs);
  /// Convenience overload over a contiguous span of graphs.
  void pack(std::span<const EncodedGraph> graphs);
  /// One-graph batch: the single-graph model and engine entry points.
  void pack(const EncodedGraph& graph) {
    pack(std::span<const EncodedGraph>(&graph, 1));
  }

  [[nodiscard]] std::size_t size() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// The graphs' node kinds and literals, concatenated: the feature rows
  /// as conv1 reads them.
  [[nodiscard]] nn::OneHotRows node_rows() const {
    return {kinds_, literals_};
  }
  /// Block-diagonal relations over the concatenated node numbering.
  [[nodiscard]] const nn::RelationalGraph& relations() const {
    return relations_;
  }
  /// Per-graph node offsets, size B+1: graph b owns global node ids
  /// [node_offsets()[b], node_offsets()[b+1]).
  [[nodiscard]] std::span<const std::uint32_t> node_offsets() const {
    return offsets_;
  }

 private:
  std::vector<std::uint8_t> kinds_;
  std::vector<float> literals_;
  nn::RelationalGraph relations_;
  std::vector<std::uint32_t> offsets_;
  std::vector<const EncodedGraph*> scratch_;  // for the value-span overload
  std::vector<std::uint32_t> rank_;  // append_sender_index scratch
};

}  // namespace pg::model
