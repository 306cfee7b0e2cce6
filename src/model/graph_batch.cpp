// Block-diagonal packing of encoded graphs: kind/literal concatenation plus
// offset-shifted concatenation of every relation's CSR/SoA arrays, and the
// sender index of every single-edge relation.
#include "model/graph_batch.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace pg::model {

void GraphBatch::pack(std::span<const EncodedGraph* const> graphs) {
  offsets_.clear();
  offsets_.push_back(0);

  std::size_t total_nodes = 0;
  std::size_t num_relations = 0;
  for (const EncodedGraph* g : graphs) {
    check(g != nullptr, "GraphBatch::pack: null graph");
    check(g->literals.size() == g->num_nodes(),
          "GraphBatch::pack: kind/literal count mismatch");
    check(g->num_nodes() == g->relations.num_nodes,
          "GraphBatch::pack: node count != relation nodes");
    if (offsets_.size() == 1)
      num_relations = g->relations.relations.size();
    else
      check(g->relations.relations.size() == num_relations,
            "GraphBatch::pack: relation count mismatch across the batch");
    total_nodes += g->num_nodes();
    offsets_.push_back(static_cast<std::uint32_t>(total_nodes));
  }

  kinds_.clear();
  literals_.clear();
  for (const EncodedGraph* g : graphs) {
    kinds_.insert(kinds_.end(), g->kinds.begin(), g->kinds.end());
    literals_.insert(literals_.end(), g->literals.begin(), g->literals.end());
  }

  relations_.num_nodes = total_nodes;
  relations_.relations.resize(num_relations);
  for (std::size_t r = 0; r < num_relations; ++r) {
    nn::RelationEdges& out = relations_.relations[r];
    out.src_local.clear();
    out.gate.clear();
    out.nodes.clear();
    out.group_offsets.clear();
    out.group_dst.clear();
    out.src_nodes.clear();
    out.src_slot.clear();
    out.group_offsets.push_back(0);
    // The union is single-edge when every block is; it then gets its
    // sender index block by block, as from_edges over the union would.
    const bool single_edge = std::all_of(
        graphs.begin(), graphs.end(), [r](const EncodedGraph* g) {
          return g->relations.relations[r].all_single_edge();
        });
    std::uint32_t row_off = 0;   // local active-row offset within relation r
    std::uint32_t edge_off = 0;  // edge-slot offset within relation r
    for (std::size_t b = 0; b < graphs.size(); ++b) {
      const nn::RelationEdges& rel = graphs[b]->relations.relations[r];
      const std::uint32_t node_off = offsets_[b];
      if (single_edge) rel.append_sender_index(node_off, rank_, out);
      for (std::uint32_t v : rel.nodes) out.nodes.push_back(v + node_off);
      for (std::uint32_t s : rel.src_local) out.src_local.push_back(s + row_off);
      out.gate.insert(out.gate.end(), rel.gate.begin(), rel.gate.end());
      for (std::size_t g = 0; g < rel.num_groups(); ++g) {
        out.group_dst.push_back(rel.group_dst[g] + row_off);
        out.group_offsets.push_back(rel.group_offsets[g + 1] + edge_off);
      }
      row_off += static_cast<std::uint32_t>(rel.num_active_nodes());
      edge_off += static_cast<std::uint32_t>(rel.num_edges());
    }
  }
}

void GraphBatch::pack(std::span<const EncodedGraph> graphs) {
  scratch_.clear();
  scratch_.reserve(graphs.size());
  for (const EncodedGraph& g : graphs) scratch_.push_back(&g);
  pack(std::span<const EncodedGraph* const>(scratch_));
}

}  // namespace pg::model
