// ProgramGraph -> EncodedGraph: node kinds and literals, per-relation edge
// lists, and weight normalisation.
#include "model/encoding.hpp"

#include <algorithm>
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

  std::vector<std::vector<nn::RelEdge>> per_relation(graph::kNumEdgeTypes);
  for (const graph::GraphEdge& e : graph.edges()) {
    nn::RelEdge edge;
    edge.src = e.src;
    edge.dst = e.dst;
    if (e.type == graph::EdgeType::kChild) {
      const double scaled =
          std::clamp(static_cast<double>(e.weight) / child_weight_scale, 0.0, 1.0);
      edge.gate = static_cast<float>(scaled);
    } else {
      edge.gate = 1.0f;
    }
    per_relation[static_cast<std::size_t>(e.type)].push_back(edge);
  }

  out.relations.num_nodes = n;
  out.relations.relations.reserve(graph::kNumEdgeTypes);
  for (auto& edges : per_relation)
    out.relations.relations.push_back(nn::RelationEdges::from_edges(std::move(edges)));
  return out;
}

}  // namespace pg::model
