// Model-facing graph encoding: per-relation CSR/SoA adjacency grouped by
// destination, ready for attention softmax over incoming edges.
//
// Each relation keeps a compact *local* numbering of the nodes it touches
// (`nodes`), and edge data lives in flat typed arrays (structure-of-arrays)
// rather than per-edge records: `src_local[e]` and `gate[e]` are contiguous,
// and a CSR offset table groups edges by destination. The RGAT layer
// projects through W_r only the rows a relation sends from (single-edge)
// or touches (attention) — most relations (ForExec, ConTrue, Ref, ...)
// touch a small fraction of the graph, so this cuts the per-layer matmul
// cost by roughly the relation's sparsity — and the SoA layout keeps the
// gather/softmax/scatter inner loops on dense 4-byte streams instead of
// 20-byte records.
//
// A single-edge relation (every destination has one in-edge) reads the
// projection of its sources only, so it also carries a derived *sender
// index*: `src_nodes`, its distinct sources in ascending global order, and
// `src_slot[e]`, each edge's position in that list. The index is built by
// from_edges and by model::GraphBatch::pack, never stored: the readers and
// from_buckets leave it empty, and the RGAT layer refuses a single-edge
// relation without it.
//
// Because local indices are relation-private, two RelationEdges can be
// concatenated (with node/row/edge offsets) into a valid block-diagonal
// relation — the basis of model::GraphBatch's fused batch forward.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace pg::nn {

/// One (src, dst, gate) triple in *global* node ids — the construction-time
/// input to RelationEdges and the expansion product of to_edges(). The gate
/// is the message multiplier: 1 for unweighted relations; for ParaGraph
/// Child edges the MinMax-scaled execution-count weight.
struct RelEdge {
  std::uint32_t src = 0;  // global node id
  std::uint32_t dst = 0;  // global node id
  float gate = 1.0f;

  friend bool operator==(const RelEdge&, const RelEdge&) = default;
};

/// Edges of one relation in CSR/SoA form, grouped by destination:
/// edge slots [group_offsets[g], group_offsets[g+1]) all target local node
/// group_dst[g] (nodes[group_dst[g]] is the global id). src_local/gate are
/// parallel flat arrays over the same edge slots.
struct RelationEdges {
  std::vector<std::uint32_t> src_local;      // per edge: local source index
  std::vector<float> gate;                   // per edge: message multiplier
  std::vector<std::uint32_t> nodes;          // local -> global (sorted unique)
  std::vector<std::uint32_t> group_offsets;  // size = num_groups + 1
  std::vector<std::uint32_t> group_dst;      // local dst per group
  // Sender index (single-edge relations only; see the file comment).
  std::vector<std::uint32_t> src_nodes;  // distinct source globals, ascending
  std::vector<std::uint32_t> src_slot;   // per edge: position in src_nodes

  [[nodiscard]] std::size_t num_edges() const { return src_local.size(); }
  [[nodiscard]] std::size_t num_groups() const { return group_dst.size(); }
  [[nodiscard]] std::size_t num_active_nodes() const { return nodes.size(); }
  [[nodiscard]] bool empty() const { return src_local.empty(); }
  /// True when every destination group holds exactly one edge. Exact in
  /// O(1) because no group is empty (from_edges and the io readers never
  /// make one); a GraphBatch concatenation of such relations is one too.
  /// The RGAT layer skips attention here: a one-edge softmax weighs 1.
  [[nodiscard]] bool all_single_edge() const {
    return num_groups() == num_edges();
  }
  /// True when the relation carries the sender index the RGAT layer needs:
  /// it has attention (and needs none) or its src_slot covers every edge.
  [[nodiscard]] bool has_sender_index() const {
    return !all_single_edge() || src_slot.size() == num_edges();
  }

  /// Appends this relation's sender index onto out.src_nodes/src_slot: its
  /// distinct sources in ascending order, each global id plus
  /// `node_offset`, and per edge the source's position in out.src_nodes.
  /// Appending the blocks of a block-diagonal union in order builds the
  /// union's own index. `rank` is scratch (one entry per active node);
  /// `out` may be this relation. O(active nodes + edges).
  void append_sender_index(std::uint32_t node_offset,
                           std::vector<std::uint32_t>& rank,
                           RelationEdges& out) const;

  /// Builds the grouped/localised CSR form from (src, dst, gate) triples
  /// over the nodes [0, num_nodes); an id at or above the bound throws.
  /// Parallel (duplicate) edges and self-loops are kept as distinct slots,
  /// in input order within their group; a single-edge result carries its
  /// sender index. O(num_nodes + edges).
  static RelationEdges from_edges(std::span<const RelEdge> edges,
                                  std::size_t num_nodes);
  static RelationEdges from_edges(std::initializer_list<RelEdge> edges,
                                  std::size_t num_nodes) {
    return from_edges(std::span<const RelEdge>(edges.begin(), edges.size()),
                      num_nodes);
  }

  /// Expands back to global (src, dst, gate) triples in storage (grouped)
  /// order — the legacy array-of-structs view, for serialisation and tests.
  [[nodiscard]] std::vector<RelEdge> to_edges() const;
};

struct RelationalGraph {
  std::size_t num_nodes = 0;
  std::vector<RelationEdges> relations;

  /// One relation per bucket: relation r is RelationEdges::from_edges over
  /// edges [bucket_offsets[r], bucket_offsets[r + 1]) without the sender
  /// index (the storage form; GraphBatch::pack derives it), and all of them
  /// share one dense per-node scratch.
  static RelationalGraph from_buckets(std::span<const RelEdge> edges,
                                      std::span<const std::size_t> bucket_offsets,
                                      std::size_t num_nodes);

  [[nodiscard]] std::size_t num_edges() const {
    std::size_t total = 0;
    for (const auto& rel : relations) total += rel.num_edges();
    return total;
  }
};

}  // namespace pg::nn
