// ProgramGraph -> model tensors.
//
// Node features are a one-hot over the ~45 AST node kinds plus one extra
// column carrying the log-magnitude of integer literals (Clang AST literal
// nodes carry their values; without this column no unweighted
// representation could see loop extents at all and the Raw-vs-Augmented
// ablation would collapse). Loop extents still reach the model primarily
// through ParaGraph's Child-edge weights — the literal column is a weak,
// node-local signal the unweighted representations must *propagate* through
// their edges, which is exactly the paper's Augmented-AST story.
//
// A node's feature row holds at most two nonzeros, so it is stored as
// what it is: one kind byte and one literal float per node, in RAM, on disk
// (docs/FORMAT.md) and into the first RGAT layer (nn::OneHotRows).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/program_graph.hpp"
#include "nn/relational_graph.hpp"
#include "nn/rgat.hpp"

namespace pg::model {

/// Width of the node-feature row: the one-hot node kind + the literal
/// log-magnitude column (conv1's input width, part of the schema hash).
constexpr std::size_t kNodeFeatureDim = frontend::kNumNodeKinds + 1;
static_assert(frontend::kNumNodeKinds <= 256, "a node kind must fit a byte");

struct EncodedGraph {
  std::vector<std::uint8_t> kinds;  // per node: NodeKind (< kNumNodeKinds)
  std::vector<float> literals;      // per node: the literal column
  nn::RelationalGraph relations;    // one RelationEdges per EdgeType

  [[nodiscard]] std::size_t num_nodes() const { return kinds.size(); }
  /// The feature rows as conv1 reads them (borrowed).
  [[nodiscard]] nn::OneHotRows node_rows() const { return {kinds, literals}; }
};

/// `child_weight_scale` is the dataset-global maximum Child-edge weight used
/// for MinMax scaling (paper §IV-B); pass 1.0 for unweighted representations.
EncodedGraph encode_graph(const graph::ProgramGraph& graph,
                          double child_weight_scale);

}  // namespace pg::model
