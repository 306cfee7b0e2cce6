// ProgramGraph -> EncodedGraph: node kinds and literals, per-relation edge
// lists, and weight normalisation.
#include "model/encoding.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>

#include "support/check.hpp"

namespace pg::model {
namespace {

/// log2 magnitude of an integer-literal node's value, scaled into [0, ~2].
/// 0 for non-literals and for the literal 0.
float literal_magnitude(const graph::GraphNode& node) {
  if (node.kind != frontend::NodeKind::kIntegerLiteral || node.label.empty())
    return 0.0f;
  const long long value = std::strtoll(node.label.c_str(), nullptr, 0);
  if (value <= 0) return 0.0f;
  return static_cast<float>(std::log2(1.0 + static_cast<double>(value)) / 16.0);
}

}  // namespace

EncodedGraph encode_graph(const graph::ProgramGraph& graph,
                          double child_weight_scale) {
  check(child_weight_scale > 0.0, "child_weight_scale must be positive");
  EncodedGraph out;

  const std::size_t n = graph.num_nodes();
  out.kinds.resize(n);
  out.literals.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto kind = static_cast<std::size_t>(graph.nodes()[i].kind);
    check(kind < frontend::kNumNodeKinds, "bad node kind");
    out.kinds[i] = static_cast<std::uint8_t>(kind);
    out.literals[i] = literal_magnitude(graph.nodes()[i]);
  }

  // Bucket the edges by relation with one stable counting pass, computing
  // the Child gates on the way; each bucket keeps the graph's edge order.
  std::array<std::size_t, graph::kNumEdgeTypes + 1> offsets{};
  for (const graph::GraphEdge& e : graph.edges())
    ++offsets[static_cast<std::size_t>(e.type) + 1];
  for (std::size_t r = 0; r < graph::kNumEdgeTypes; ++r) offsets[r + 1] += offsets[r];
  auto cursor = offsets;
  std::vector<nn::RelEdge> bucketed(graph.num_edges());
  for (const graph::GraphEdge& e : graph.edges()) {
    nn::RelEdge& edge = bucketed[cursor[static_cast<std::size_t>(e.type)]++];
    edge.src = e.src;
    edge.dst = e.dst;
    if (e.type == graph::EdgeType::kChild) {
      const double scaled =
          std::clamp(static_cast<double>(e.weight) / child_weight_scale, 0.0, 1.0);
      edge.gate = static_cast<float>(scaled);
    } else {
      edge.gate = 1.0f;
    }
  }

  out.relations = nn::RelationalGraph::from_buckets(bucketed, offsets, n);
  return out;
}

}  // namespace pg::model
