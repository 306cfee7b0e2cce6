// CSR/SoA construction for one relation: local numbering over incident
// nodes, destination grouping, and the flat per-edge arrays consumed by the
// RGCN/RGAT convolutions. Both steps are counting passes over a dense
// per-node array, so construction is O(num_nodes + edges) and stable.
#include "nn/relational_graph.hpp"

#include <limits>

#include "support/check.hpp"

namespace pg::nn {
namespace {

/// Builds relations over one node bound. `local_` is 0 for every node
/// between two build() calls; within one it first marks the endpoints
/// (bit 0: touched, bit 1: a destination), then holds their local index.
class RelationBuilder {
 public:
  explicit RelationBuilder(std::size_t num_nodes) : local_(num_nodes, 0) {}

  RelationEdges build(std::span<const RelEdge> edges) {
    check(edges.size() <= std::numeric_limits<std::uint32_t>::max(),
          "relation has more than 2^32 - 1 edges");
    const std::size_t bound = local_.size();
    std::size_t num_local = 0, num_groups = 0;
    for (const RelEdge& e : edges) {
      check(e.src < bound && e.dst < bound, "relation edge id out of node bound");
      num_local += local_[e.src] == 0;
      local_[e.src] |= 1;
      num_local += local_[e.dst] == 0;
      num_groups += (local_[e.dst] & 2) == 0;
      local_[e.dst] |= 3;
    }

    // Local numbering in ascending global order.
    RelationEdges out;
    out.nodes.reserve(num_local);
    for (std::uint32_t v = 0; out.nodes.size() < num_local; ++v) {
      if (local_[v] == 0) continue;
      local_[v] = static_cast<std::uint32_t>(out.nodes.size());
      out.nodes.push_back(v);
    }

    // Counting sort by local destination: start_[l + 1] counts l's edges,
    // then the prefix sums turn start_[l] into l's first slot. Scattering
    // in input order keeps each group in input order.
    start_.assign(num_local + 1, 0);
    for (const RelEdge& e : edges) ++start_[local_[e.dst] + 1];
    out.group_dst.reserve(num_groups);
    out.group_offsets.reserve(num_groups + 1);
    for (std::size_t l = 0; l < num_local; ++l) {
      if (start_[l + 1] != 0) {
        out.group_dst.push_back(static_cast<std::uint32_t>(l));
        out.group_offsets.push_back(start_[l]);
      }
      start_[l + 1] += start_[l];
    }
    out.group_offsets.push_back(static_cast<std::uint32_t>(edges.size()));
    out.src_local.resize(edges.size());
    out.gate.resize(edges.size());
    for (const RelEdge& e : edges) {
      const std::uint32_t slot = start_[local_[e.dst]]++;
      out.src_local[slot] = local_[e.src];
      out.gate[slot] = e.gate;
    }

    for (const std::uint32_t v : out.nodes) local_[v] = 0;
    return out;
  }

 private:
  std::vector<std::uint32_t> local_;  // per node of the bound
  std::vector<std::uint32_t> start_;  // per local node, plus one
};

}  // namespace

RelationEdges RelationEdges::from_edges(std::span<const RelEdge> edges,
                                        std::size_t num_nodes) {
  RelationEdges out = RelationBuilder(num_nodes).build(edges);
  if (out.all_single_edge()) {
    std::vector<std::uint32_t> rank;
    out.append_sender_index(0, rank, out);
  }
  return out;
}

void RelationEdges::append_sender_index(std::uint32_t node_offset,
                                        std::vector<std::uint32_t>& rank,
                                        RelationEdges& out) const {
  // rank[l] is 1 for a source, then its slot. A slot is written only at
  // or after the mark it replaces was read, so the two uses never clash.
  rank.assign(num_active_nodes(), 0);
  for (const std::uint32_t s : src_local) rank[s] = 1;
  auto next = static_cast<std::uint32_t>(out.src_nodes.size());
  for (std::size_t l = 0; l < rank.size(); ++l) {
    if (rank[l] == 0) continue;
    rank[l] = next++;
    out.src_nodes.push_back(nodes[l] + node_offset);
  }
  for (const std::uint32_t s : src_local) out.src_slot.push_back(rank[s]);
}

RelationalGraph RelationalGraph::from_buckets(
    std::span<const RelEdge> edges, std::span<const std::size_t> bucket_offsets,
    std::size_t num_nodes) {
  check(!bucket_offsets.empty() && bucket_offsets.front() == 0 &&
            bucket_offsets.back() == edges.size(),
        "relation buckets must cover the edge list");
  RelationalGraph out;
  out.num_nodes = num_nodes;
  out.relations.reserve(bucket_offsets.size() - 1);
  RelationBuilder builder(num_nodes);
  for (std::size_t r = 0; r + 1 < bucket_offsets.size(); ++r) {
    check(bucket_offsets[r] <= bucket_offsets[r + 1], "relation buckets out of order");
    out.relations.push_back(builder.build(
        edges.subspan(bucket_offsets[r], bucket_offsets[r + 1] - bucket_offsets[r])));
  }
  return out;
}

std::vector<RelEdge> RelationEdges::to_edges() const {
  std::vector<RelEdge> out;
  out.reserve(num_edges());
  for (std::size_t g = 0; g < num_groups(); ++g) {
    const std::uint32_t dst = nodes[group_dst[g]];
    for (std::uint32_t e = group_offsets[g]; e < group_offsets[g + 1]; ++e)
      out.push_back({nodes[src_local[e]], dst, gate[e]});
  }
  return out;
}

}  // namespace pg::nn
