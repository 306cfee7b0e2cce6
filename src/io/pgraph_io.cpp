// Container header/section-table handling plus the graph/sample/dataset
// payload codecs. Every put_* is a template over Sink so the section sizes
// in the table are measured by the same code that emits the bytes.
#include "io/pgraph_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string_view>
#include <utility>
#include <vector>

#include "io/binary.hpp"
#include "io/format_detail.hpp"
#include "model/encoding.hpp"

namespace pg::io {
namespace {

// Constants, SectionEntry/Prologue, and the shared codec declarations live
// in format_detail.hpp so dataset_view.cpp decodes the same bytes with the
// same validation.
using namespace detail;  // NOLINT(google-build-using-namespace)

// --- header / section table ----------------------------------------------

template <class Sink>
void put_header(Sink& sink, PayloadKind kind, std::uint16_t version,
                std::uint32_t section_count) {
  sink.bytes(kMagic, sizeof kMagic);
  put_u16(sink, version);
  put_u16(sink, static_cast<std::uint16_t>(kind));
  put_u64(sink, feature_schema_hash());
  put_u32(sink, section_count);
}

template <class Sink>
void put_section_table(Sink& sink, const std::vector<SectionEntry>& entries) {
  for (const SectionEntry& e : entries) {
    put_u32(sink, e.id);
    put_u64(sink, e.size);
  }
}

// --- graph payloads -------------------------------------------------------

template <class Sink>
void put_graph_nodes(Sink& sink, const graph::ProgramGraph& graph) {
  put_u64(sink, graph.num_nodes());
  for (const graph::GraphNode& n : graph.nodes()) {
    put_u16(sink, static_cast<std::uint16_t>(n.kind));
    put_string(sink, n.label);
  }
}

template <class Sink>
void put_graph_edges(Sink& sink, const graph::ProgramGraph& graph) {
  put_u64(sink, graph.num_edges());
  for (const graph::GraphEdge& e : graph.edges()) {
    put_u32(sink, e.src);
    put_u32(sink, e.dst);
    put_u8(sink, static_cast<std::uint8_t>(e.type));
    put_f32(sink, e.weight);
  }
}

std::vector<graph::GraphNode> get_graph_nodes(Source& src) {
  const std::uint64_t count = get_count(src, "graph node count", 6);
  std::vector<graph::GraphNode> nodes;
  nodes.reserve(std::min(count, kMaxPrealloc));
  for (std::uint64_t i = 0; i < count; ++i) {
    graph::GraphNode n;
    const std::uint16_t kind = get_u16(src);
    if (kind >= frontend::kNumNodeKinds)
      throw FormatError("corrupt graph node: unknown node kind");
    n.kind = static_cast<frontend::NodeKind>(kind);
    n.label = get_string(src);
    nodes.push_back(std::move(n));
  }
  return nodes;
}

std::vector<graph::GraphEdge> get_graph_edges(Source& src) {
  const std::uint64_t count = get_count(src, "graph edge count", 13);
  std::vector<graph::GraphEdge> edges;
  edges.reserve(std::min(count, kMaxPrealloc));
  for (std::uint64_t i = 0; i < count; ++i) {
    graph::GraphEdge e;
    e.src = get_u32(src);
    e.dst = get_u32(src);
    const std::uint8_t type = get_u8(src);
    if (type >= graph::kNumEdgeTypes)
      throw FormatError("corrupt graph edge: unknown edge type");
    e.type = static_cast<graph::EdgeType>(type);
    e.weight = get_f32(src);
    if (!std::isfinite(e.weight) || e.weight < 0.0f)
      throw FormatError("corrupt graph edge: bad weight");
    edges.push_back(e);
  }
  return edges;
}

// --- sample payloads ------------------------------------------------------

template <class Sink>
void put_sample_meta(Sink& sink, const model::TrainingSample& s) {
  put_f32(sink, s.aux[0]);
  put_f32(sink, s.aux[1]);
  put_f64(sink, s.target_scaled);
  put_f64(sink, s.runtime_us);
  put_i32(sink, s.app_id);
  put_string(sink, s.app_name);
  put_string(sink, s.variant);
}

void get_sample_meta(Source& src, model::TrainingSample& s) {
  s.aux[0] = get_f32(src);
  s.aux[1] = get_f32(src);
  s.target_scaled = get_f64(src);
  s.runtime_us = get_f64(src);
  s.app_id = get_i32(src);
  s.app_name = get_string(src);
  s.variant = get_string(src);
}

/// The kind/literal feature layout: u64 rows, u64 kFeatureLayoutKindLiteral
/// (where the legacy dense layout holds its width, kNodeFeatureDim), then
/// rows u8 node kinds and rows f32 literals.
template <class Sink>
void put_sample_features(Sink& sink, const model::EncodedGraph& g) {
  put_u64(sink, g.num_nodes());
  put_u64(sink, kFeatureLayoutKindLiteral);
  sink.bytes(g.kinds.data(), g.kinds.size());
  for (const float v : g.literals) put_f32(sink, v);
}

[[noreturn]] void throw_feature_error(const std::string& what,
                                      std::uint64_t offset) {
  throw FormatError("corrupt sample: " + what + " (features section, byte "
                    "offset " + std::to_string(offset) + ")");
}

/// The legacy dense layout's rows (u64 rows, u64 kNodeFeatureDim, rows x 45
/// f32 row-major), converted to kinds and literals. A row converts only if
/// its kind columns hold exactly one 1.0f and +0.0f everywhere else — the
/// rows encode_graph wrote — so a converted file re-encodes to the same
/// features; the literal column may hold any value. `at` is the offset of
/// the first row.
void convert_dense_features(const unsigned char* raw, std::uint64_t at,
                            model::EncodedGraph& g) {
  constexpr std::size_t kKinds = frontend::kNumNodeKinds;
  constexpr std::uint32_t kOne = 0x3f800000u;  // 1.0f
  for (std::size_t i = 0; i < g.kinds.size(); ++i) {
    const unsigned char* row = raw + i * model::kNodeFeatureDim * 4;
    std::size_t kind = kKinds;
    for (std::size_t c = 0; c < kKinds; ++c) {
      const std::uint32_t word = load_le32(row + c * 4);
      if (word == 0) continue;
      const std::uint64_t offset = at + (row - raw) + c * 4;
      if (word != kOne)
        throw_feature_error("dense feature row " + std::to_string(i) +
                                " holds a kind entry other than 0 or 1",
                            offset);
      if (kind != kKinds)
        throw_feature_error("dense feature row " + std::to_string(i) +
                                " holds two node kinds",
                            offset);
      kind = c;
    }
    if (kind == kKinds)
      throw_feature_error("dense feature row " + std::to_string(i) +
                              " holds no node kind",
                          at + (row - raw));
    g.kinds[i] = static_cast<std::uint8_t>(kind);
    g.literals[i] = std::bit_cast<float>(load_le32(row + kKinds * 4));
  }
}

/// Reads either feature layout into g.kinds/g.literals.
FeatureSectionInfo get_sample_features(Source& src, model::EncodedGraph& g) {
  const std::uint64_t start = src.consumed();
  const std::uint64_t rows = get_count(src, "feature rows");
  const std::uint64_t layout = get_u64(src);
  const std::uint64_t at = src.consumed();
  if (layout != kFeatureLayoutKindLiteral && layout != model::kNodeFeatureDim)
    throw_feature_error("unknown feature layout " + std::to_string(layout),
                        at - 8);
  const bool dense = layout == model::kNodeFeatureDim;
  // rows <= 2^28 (get_count), so rows * 180 cannot overflow.
  const std::uint64_t bytes = rows * (dense ? model::kNodeFeatureDim * 4 : 5);
  if (bytes > src.remaining_budget())
    throw_feature_error(std::string(dense ? "dense feature matrix"
                                          : "kind and literal arrays") +
                            " larger than the section",
                        at);
  // The bytes exist before the arrays are sized for them.
  const unsigned char* raw = src.take(static_cast<std::size_t>(bytes));
  g.kinds.resize(static_cast<std::size_t>(rows));
  g.literals.resize(static_cast<std::size_t>(rows));
  if (dense) {
    convert_dense_features(raw, at, g);
  } else {
    std::copy_n(raw, g.kinds.size(), g.kinds.begin());
    for (std::size_t i = 0; i < g.kinds.size(); ++i)
      if (g.kinds[i] >= frontend::kNumNodeKinds)
        throw_feature_error("node kind " + std::to_string(g.kinds[i]) +
                                " out of range",
                            at + i);
    load_le32s(raw + rows, g.literals.data(), g.literals.size());
  }
  return {src.consumed() - start, dense};
}

/// Runs one sample section's decoder. A FormatError it raises gains the
/// section's name and the byte offset the decoder had reached, unless the
/// text already names them.
template <class Fn>
void decode_section(Source& src, const char* section, Fn&& decode) {
  try {
    decode();
  } catch (const FormatError& e) {
    const std::string what = e.what();
    if (what.find(" section, byte offset ") != std::string::npos) throw;
    throw FormatError(what + " (" + section + " section, byte offset " +
                      std::to_string(src.consumed()) + ")");
  }
}

// The on-disk edge record keeps the legacy array-of-structs shape —
// (src, dst, src_local, dst_local, gate) per edge — so files written by the
// pre-CSR code are byte-identical. The redundant global/dst_local fields
// are re-derived from the CSR arrays on write and re-validated on read.
template <class Sink>
void put_sample_relations(Sink& sink, const nn::RelationalGraph& rg) {
  put_u64(sink, rg.num_nodes);
  put_u32(sink, static_cast<std::uint32_t>(rg.relations.size()));
  for (const nn::RelationEdges& rel : rg.relations) {
    put_u64(sink, rel.num_edges());
    for (std::size_t g = 0; g < rel.num_groups(); ++g) {
      const std::uint32_t dst_local = rel.group_dst[g];
      for (std::uint32_t e = rel.group_offsets[g]; e < rel.group_offsets[g + 1];
           ++e) {
        put_u32(sink, rel.nodes[rel.src_local[e]]);
        put_u32(sink, rel.nodes[dst_local]);
        put_u32(sink, rel.src_local[e]);
        put_u32(sink, dst_local);
        put_f32(sink, rel.gate[e]);
      }
    }
    put_u64(sink, rel.nodes.size());
    for (std::uint32_t v : rel.nodes) put_u32(sink, v);
    put_u64(sink, rel.group_offsets.size());
    for (std::uint32_t v : rel.group_offsets) put_u32(sink, v);
    put_u64(sink, rel.group_dst.size());
    for (std::uint32_t v : rel.group_dst) put_u32(sink, v);
  }
}

/// Reads one relation and verifies every invariant RelationEdges::from_edges
/// guarantees, so corrupt files cannot smuggle out-of-range indices into the
/// RGAT gather/scatter kernels. The redundant on-disk per-edge fields
/// (global src/dst, dst_local) are cross-checked against the CSR arrays and
/// then dropped — the in-memory target is the flat SoA form.
nn::RelationEdges get_relation(Source& src, std::uint64_t num_global_nodes) {
  nn::RelationEdges rel;
  std::vector<std::uint32_t> src_global;
  std::vector<std::uint32_t> dst_global;
  std::vector<std::uint32_t> dst_local;
  const std::uint64_t num_edges = get_count(src, "relation edge count", 20);
  const std::uint64_t prealloc = std::min(num_edges, kMaxPrealloc);
  rel.src_local.reserve(prealloc);
  rel.gate.reserve(prealloc);
  src_global.reserve(prealloc);
  dst_global.reserve(prealloc);
  dst_local.reserve(prealloc);
  for (std::uint64_t i = 0; i < num_edges; ++i) {
    src_global.push_back(get_u32(src));
    dst_global.push_back(get_u32(src));
    rel.src_local.push_back(get_u32(src));
    dst_local.push_back(get_u32(src));
    const float gate = get_f32(src);
    if (!std::isfinite(gate))
      throw FormatError("corrupt relation: non-finite edge gate");
    rel.gate.push_back(gate);
  }
  // Each array is one checked read; get_count already fit n*4 to the
  // section, and take() finds the bytes before the vector is sized.
  auto read_u32s = [&src](std::vector<std::uint32_t>& out, std::uint64_t n) {
    const unsigned char* raw = src.take(static_cast<std::size_t>(n * 4));
    out.resize(static_cast<std::size_t>(n));
    load_le32s(raw, out.data(), out.size());
  };
  read_u32s(rel.nodes, get_count(src, "relation node count", 4));
  read_u32s(rel.group_offsets, get_count(src, "relation offset count", 4));
  read_u32s(rel.group_dst, get_count(src, "relation group count", 4));

  for (std::size_t i = 0; i < rel.nodes.size(); ++i) {
    if (rel.nodes[i] >= num_global_nodes)
      throw FormatError("corrupt relation: node id out of range");
    if (i > 0 && rel.nodes[i] <= rel.nodes[i - 1])
      throw FormatError("corrupt relation: node list not strictly increasing");
  }
  if (rel.group_offsets.size() != rel.group_dst.size() + 1)
    throw FormatError("corrupt relation: group table shape mismatch");
  if (rel.group_offsets.front() != 0 ||
      rel.group_offsets.back() != rel.num_edges())
    throw FormatError("corrupt relation: group offsets do not span the edges");
  for (std::size_t g = 0; g + 1 < rel.group_offsets.size(); ++g) {
    if (rel.group_offsets[g] >= rel.group_offsets[g + 1])
      throw FormatError("corrupt relation: group offsets not increasing");
    if (g > 0 && rel.group_dst[g] <= rel.group_dst[g - 1])
      throw FormatError("corrupt relation: group dst not increasing");
    if (rel.group_dst[g] >= rel.nodes.size())
      throw FormatError("corrupt relation: group dst out of range");
    for (std::uint32_t i = rel.group_offsets[g]; i < rel.group_offsets[g + 1];
         ++i) {
      if (rel.src_local[i] >= rel.nodes.size() ||
          dst_local[i] >= rel.nodes.size())
        throw FormatError("corrupt relation: local index out of range");
      if (dst_local[i] != rel.group_dst[g])
        throw FormatError("corrupt relation: edge outside its dst group");
      if (src_global[i] != rel.nodes[rel.src_local[i]] ||
          dst_global[i] != rel.nodes[dst_local[i]])
        throw FormatError("corrupt relation: local/global id mismatch");
    }
  }
  return rel;
}

nn::RelationalGraph get_sample_relations(Source& src) {
  nn::RelationalGraph rg;
  rg.num_nodes = static_cast<std::size_t>(get_count(src, "relation graph nodes"));
  const std::uint32_t num_relations = get_u32(src);
  if (num_relations != graph::kNumEdgeTypes)
    throw FormatError("corrupt sample: relation count does not match the "
                      "edge-type contract");
  rg.relations.reserve(num_relations);
  for (std::uint32_t r = 0; r < num_relations; ++r)
    rg.relations.push_back(get_relation(src, rg.num_nodes));
  return rg;
}

/// The three sample sections concatenated without framing — the body shared
/// by .psample sections and .pgds records.
template <class Sink>
void put_sample_body(Sink& sink, const model::TrainingSample& s) {
  put_sample_meta(sink, s);
  put_sample_features(sink, s.graph);
  put_sample_relations(sink, s.graph.relations);
}

/// A whole .psample container: header, section table (sizes measured by
/// the same code that emits the sections), then the three sections.
template <class Sink>
void put_sample_container(Sink& sink, const model::TrainingSample& sample) {
  CountingSink meta_size, features_size, relations_size;
  put_sample_meta(meta_size, sample);
  put_sample_features(features_size, sample.graph);
  put_sample_relations(relations_size, sample.graph.relations);

  put_header(sink, PayloadKind::kSample, kFormatVersion, 3);
  put_section_table(sink, {{kSecSampleMeta, meta_size.count},
                           {kSecSampleFeatures, features_size.count},
                           {kSecSampleRelations, relations_size.count}});
  put_sample_body(sink, sample);
}

// --- dataset meta ---------------------------------------------------------

template <class Sink>
void put_dataset_meta(Sink& sink, const DatasetMeta& meta) {
  put_string(sink, meta.platform);
  put_string(sink, meta.representation);
  put_u64(sink, meta.seed);
  put_u8(sink, meta.log_target ? 1 : 0);
  put_f64(sink, meta.child_weight_scale);
  put_f64(sink, meta.target_min);
  put_f64(sink, meta.target_max);
  put_f64(sink, meta.teams_min);
  put_f64(sink, meta.teams_max);
  put_f64(sink, meta.threads_min);
  put_f64(sink, meta.threads_max);
}

void throw_on_stream_error(const std::ostream& os) {
  if (!os) throw FormatError("I/O error while writing");
}

// --- istream entry points: buffer the bytes, then decode from memory -------

inline constexpr std::size_t kHeaderBytes = sizeof kMagic + 2 + 2 + 8 + 4;
inline constexpr std::size_t kSectionEntryBytes = 4 + 8;

/// Appends up to `n` more bytes of `is` to `buf`. The buffer grows only as
/// bytes arrive (at most kMaxPrealloc ahead of them), so a size field that
/// lies about the stream costs no memory beyond what the stream holds. A
/// short stream just leaves a short buffer: the decoder then reports the
/// truncation at the same byte the old incremental reader did.
void read_into(std::istream& is, std::vector<unsigned char>& buf,
               std::uint64_t n) {
  while (n > 0) {
    const auto chunk = static_cast<std::size_t>(std::min(n, kMaxPrealloc));
    const std::size_t old_size = buf.size();
    buf.resize(old_size + chunk);
    is.read(reinterpret_cast<char*>(buf.data() + old_size),
            static_cast<std::streamsize>(chunk));
    const auto got = static_cast<std::size_t>(is.gcount());
    buf.resize(old_size + got);
    if (got != chunk) return;
    n -= chunk;
  }
}

/// Buffers one container: header, section table and section payloads, and
/// not a byte past them, so the stream is left where the container ends.
/// Nothing is validated here — the span decoder sees these bytes in the same
/// order and raises every error — so the counts that steer the reads are
/// bounded first: the section count by kMaxSections, each size by
/// kMaxSectionBytes, and read_into never outruns the bytes that arrive.
std::vector<unsigned char> buffer_container(std::istream& is) {
  std::vector<unsigned char> buf;
  read_into(is, buf, kHeaderBytes);
  if (buf.size() < kHeaderBytes) return buf;
  const std::uint32_t sections = load_le32(buf.data() + kHeaderBytes - 4);
  if (sections == 0 || sections > kMaxSections) return buf;
  read_into(is, buf, sections * kSectionEntryBytes);
  if (buf.size() < kHeaderBytes + sections * kSectionEntryBytes) return buf;
  std::uint64_t payload = 0;
  for (std::uint32_t i = 0; i < sections; ++i)
    payload += std::min(
        load_le64(buf.data() + kHeaderBytes + i * kSectionEntryBytes + 4),
        kMaxSectionBytes);
  read_into(is, buf, payload);
  return buf;
}

}  // namespace

// --- shared codec definitions (declared in format_detail.hpp) -------------

namespace detail {

FileInfo get_raw_header(Source& src) {
  if (std::memcmp(src.take(sizeof kMagic), kMagic, sizeof kMagic) != 0)
    throw FormatError("not a ParaGraph binary container (bad magic)");
  FileInfo info;
  info.version = get_u16(src);
  info.kind = static_cast<PayloadKind>(get_u16(src));
  info.schema_hash = get_u64(src);
  return info;
}

Prologue get_prologue(Source& src, PayloadKind expected,
                      std::uint16_t max_version) {
  Prologue prologue;
  prologue.info = get_raw_header(src);
  const FileInfo& info = prologue.info;
  if (info.version == 0 || info.version > max_version)
    throw FormatError("unsupported format version " +
                      std::to_string(info.version) + " (this build reads " +
                      (max_version > 1 ? "1-" + std::to_string(max_version)
                                       : std::to_string(max_version)) +
                      ")");
  if (info.kind != expected)
    throw FormatError(std::string("wrong payload kind: expected ") +
                      std::string(payload_kind_name(expected)) +
                      ", file holds " +
                      std::string(payload_kind_name(info.kind)));
  if (info.schema_hash != feature_schema_hash())
    throw FormatError(
        "feature-schema mismatch: file was written under a different "
        "node-kind/edge-type contract (see docs/FORMAT.md)");

  const std::uint32_t count = get_u32(src);
  if (count == 0 || count > kMaxSections)
    throw FormatError("corrupt section table: implausible section count");
  prologue.table.resize(count);
  for (SectionEntry& e : prologue.table) {
    e.id = get_u32(src);
    e.size = get_u64(src);
    if (e.size > kMaxSectionBytes)
      throw FormatError("corrupt section table: implausible section size");
    for (const SectionEntry& prev : prologue.table) {
      if (&prev == &e) break;
      if (prev.id == e.id)
        throw FormatError("corrupt section table: duplicate section id");
    }
  }
  return prologue;
}

DatasetMeta get_dataset_meta(Source& src) {
  DatasetMeta meta;
  meta.platform = get_string(src);
  meta.representation = get_string(src);
  meta.seed = get_u64(src);
  meta.log_target = get_u8(src) != 0;
  meta.child_weight_scale = get_f64(src);
  meta.target_min = get_f64(src);
  meta.target_max = get_f64(src);
  meta.teams_min = get_f64(src);
  meta.teams_max = get_f64(src);
  meta.threads_min = get_f64(src);
  meta.threads_max = get_f64(src);
  if (!std::isfinite(meta.child_weight_scale) || meta.child_weight_scale <= 0.0)
    throw FormatError("corrupt dataset meta: bad child weight scale");
  return meta;
}

model::TrainingSample get_sample_body(Source& src) {
  model::TrainingSample s;
  decode_section(src, "meta", [&] { get_sample_meta(src, s); });
  decode_section(src, "features",
                 [&] { (void)get_sample_features(src, s.graph); });
  decode_section(src, "relations", [&] {
    s.graph.relations = get_sample_relations(src);
  });
  if (s.graph.num_nodes() != s.graph.relations.num_nodes)
    throw FormatError("corrupt sample: feature rows != relation graph nodes");
  return s;
}

}  // namespace detail

std::string_view payload_kind_name(PayloadKind kind) {
  switch (kind) {
    case PayloadKind::kGraph: return "graph";
    case PayloadKind::kSample: return "sample";
    case PayloadKind::kDataset: return "dataset";
  }
  return "unknown";
}

std::uint64_t feature_schema_hash() {
  // FNV-1a over the feature-order contract; any enum rename/reorder/resize
  // lands on a different hash.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::string_view text) {
    for (const char c : text) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;  // separator so concatenated names can't collide
    h *= 0x100000001b3ull;
  };
  mix("pg-feature-schema-v1");
  mix(std::to_string(model::kNodeFeatureDim));
  for (std::size_t k = 0; k < frontend::kNumNodeKinds; ++k)
    mix(frontend::node_kind_name(static_cast<frontend::NodeKind>(k)));
  for (std::size_t t = 0; t < graph::kNumEdgeTypes; ++t)
    mix(graph::edge_type_name(static_cast<graph::EdgeType>(t)));
  return h;
}

// --- graphs ---------------------------------------------------------------

void write_graph(std::ostream& os, const graph::ProgramGraph& graph) {
  CountingSink nodes_size, edges_size;
  put_graph_nodes(nodes_size, graph);
  put_graph_edges(edges_size, graph);

  StreamSink sink{os};
  put_header(sink, PayloadKind::kGraph, kFormatVersion, 2);
  put_section_table(sink, {{kSecGraphNodes, nodes_size.count},
                           {kSecGraphEdges, edges_size.count}});
  put_graph_nodes(sink, graph);
  put_graph_edges(sink, graph);
  throw_on_stream_error(os);
}

graph::ProgramGraph read_graph(std::istream& is) {
  const std::vector<unsigned char> bytes = buffer_container(is);
  Source src(bytes.data(), bytes.size());
  const auto prologue = get_prologue(src, PayloadKind::kGraph, kFormatVersion);

  std::vector<graph::GraphNode> nodes;
  std::vector<graph::GraphEdge> edges;
  bool have_nodes = false;
  bool have_edges = false;
  for (const SectionEntry& entry : prologue.table) {
    src.push_budget(entry.size);
    switch (entry.id) {
      case kSecGraphNodes:
        nodes = get_graph_nodes(src);
        have_nodes = true;
        break;
      case kSecGraphEdges:
        edges = get_graph_edges(src);
        have_edges = true;
        break;
      default:
        src.skip(entry.size);  // forward-compatible: unknown section
    }
    src.pop_budget();
  }
  if (!have_nodes || !have_edges)
    throw FormatError("corrupt graph file: missing nodes/edges section");

  graph::ProgramGraph graph;
  for (graph::GraphNode& n : nodes) graph.add_node(n.kind, std::move(n.label));
  for (const graph::GraphEdge& e : edges) {
    if (e.src >= graph.num_nodes() || e.dst >= graph.num_nodes())
      throw FormatError("corrupt graph edge: endpoint out of range");
    graph.add_edge(e.src, e.dst, e.type, e.weight);
  }
  return graph;
}

// --- samples --------------------------------------------------------------

void write_sample(std::ostream& os, const model::TrainingSample& sample) {
  StreamSink sink{os};
  put_sample_container(sink, sample);
  throw_on_stream_error(os);
}

std::string encode_sample(const model::TrainingSample& sample) {
  std::string out;
  AppendSink sink{out};
  put_sample_container(sink, sample);
  return out;
}

model::TrainingSample read_sample(const void* data, std::size_t size,
                                  FeatureSectionInfo* features) {
  Source src(data, size);
  const auto prologue = get_prologue(src, PayloadKind::kSample, kFormatVersion);

  model::TrainingSample sample;
  bool have_meta = false;
  bool have_features = false;
  bool have_relations = false;
  FeatureSectionInfo feature_info;
  for (const SectionEntry& entry : prologue.table) {
    src.push_budget(entry.size);
    switch (entry.id) {
      case kSecSampleMeta:
        decode_section(src, "meta", [&] {
          get_sample_meta(src, sample);
          src.pop_budget();
        });
        have_meta = true;
        break;
      case kSecSampleFeatures:
        decode_section(src, "features", [&] {
          feature_info = get_sample_features(src, sample.graph);
          src.pop_budget();
        });
        have_features = true;
        break;
      case kSecSampleRelations:
        decode_section(src, "relations", [&] {
          sample.graph.relations = get_sample_relations(src);
          src.pop_budget();
        });
        have_relations = true;
        break;
      default:
        src.skip(entry.size);
        src.pop_budget();
    }
  }
  if (!have_meta || !have_features || !have_relations)
    throw FormatError("corrupt sample file: missing required section");
  if (sample.graph.num_nodes() != sample.graph.relations.num_nodes)
    throw FormatError("corrupt sample: feature rows != relation graph nodes");
  if (features != nullptr) *features = feature_info;
  return sample;
}

model::TrainingSample read_sample(std::istream& is,
                                  FeatureSectionInfo* features) {
  const std::vector<unsigned char> bytes = buffer_container(is);
  return read_sample(bytes.data(), bytes.size(), features);
}

// --- datasets -------------------------------------------------------------

DatasetMeta DatasetMeta::scalers_from(const model::SampleSet& set) {
  DatasetMeta meta;
  meta.log_target = set.log_target;
  meta.child_weight_scale = set.child_weight_scale;
  meta.target_min = set.target_scaler.min_value();
  meta.target_max = set.target_scaler.max_value();
  meta.teams_min = set.teams_scaler.min_value();
  meta.teams_max = set.teams_scaler.max_value();
  meta.threads_min = set.threads_scaler.min_value();
  meta.threads_max = set.threads_scaler.max_value();
  return meta;
}

void DatasetMeta::apply_scalers(model::SampleSet& set) const {
  set.log_target = log_target;
  set.child_weight_scale = child_weight_scale;
  set.target_scaler.fit_bounds(target_min, target_max);
  set.teams_scaler.fit_bounds(teams_min, teams_max);
  set.threads_scaler.fit_bounds(threads_min, threads_max);
}

DatasetWriter::DatasetWriter(std::ostream& os, const DatasetMeta& meta)
    : os_(os) {
  CountingSink meta_size;
  put_dataset_meta(meta_size, meta);

  StreamSink sink{os_};
  put_header(sink, PayloadKind::kDataset, kDatasetFormatVersion, 1);
  put_section_table(sink, {{kSecDatasetMeta, meta_size.count}});
  put_dataset_meta(sink, meta);
  throw_on_stream_error(os_);
  // Mirror what was just emitted to know where the first record lands —
  // the index stores absolute file offsets.
  CountingSink emitted;
  put_header(emitted, PayloadKind::kDataset, kDatasetFormatVersion, 1);
  put_section_table(emitted, {{kSecDatasetMeta, meta_size.count}});
  offset_ = emitted.count + meta_size.count;
}

DatasetWriter::~DatasetWriter() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; an explicit finish() surfaces errors.
  }
}

void DatasetWriter::append(const model::TrainingSample& sample, Split split) {
  if (finished_) throw FormatError("DatasetWriter: append after finish");
  // One measuring pass yields both the frame size and the index checksum
  // of the exact body bytes about to be emitted.
  FnvCountingSink body;
  put_u8(body, static_cast<std::uint8_t>(split));
  put_sample_body(body, sample);

  StreamSink sink{os_};
  put_u32(sink, kRecordMarker);
  put_u64(sink, body.count);
  put_u8(sink, static_cast<std::uint8_t>(split));
  put_sample_body(sink, sample);
  throw_on_stream_error(os_);
  const std::uint64_t frame = 12 + body.count;  // marker + size field + body
  index_.push_back(IndexEntry{offset_, frame, body.hash, split});
  offset_ += frame;
  ++records_;
}

void DatasetWriter::finish() {
  if (finished_) return;
  StreamSink sink{os_};
  put_u32(sink, kEndMarker);
  put_u64(sink, records_);
  offset_ += 12;
  // The index section starts right after the end marker; the fixed-size
  // footer at EOF points back at it so a reader can find it by seeking.
  put_dataset_index(sink, index_);
  put_index_footer(sink, offset_, index_section_bytes(index_.size()));
  throw_on_stream_error(os_);
  finished_ = true;
}

void write_sample_set(std::ostream& os, const model::SampleSet& set,
                      const std::string& platform,
                      const std::string& representation, std::uint64_t seed) {
  DatasetMeta meta = DatasetMeta::scalers_from(set);
  meta.platform = platform;
  meta.representation = representation;
  meta.seed = seed;
  DatasetWriter writer(os, meta);
  for (const model::TrainingSample& s : set.train)
    writer.append(s, Split::kTrain);
  for (const model::TrainingSample& s : set.validation)
    writer.append(s, Split::kValidation);
  writer.finish();
}

// --- file helpers ---------------------------------------------------------

namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw FormatError("cannot open for writing: " + path);
  return os;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw FormatError("cannot open for reading: " + path);
  return is;
}

}  // namespace

void write_graph_file(const std::string& path, const graph::ProgramGraph& graph) {
  auto os = open_out(path);
  write_graph(os, graph);
}

graph::ProgramGraph read_graph_file(const std::string& path) {
  auto is = open_in(path);
  return read_graph(is);
}

void write_sample_file(const std::string& path,
                       const model::TrainingSample& sample) {
  auto os = open_out(path);
  write_sample(os, sample);
}

model::TrainingSample read_sample_file(const std::string& path,
                                       FeatureSectionInfo* features) {
  auto is = open_in(path);
  return read_sample(is, features);
}

void write_sample_set_file(const std::string& path, const model::SampleSet& set,
                           const std::string& platform,
                           const std::string& representation,
                           std::uint64_t seed) {
  auto os = open_out(path);
  write_sample_set(os, set, platform, representation, seed);
}

FileInfo probe_file(const std::string& path) {
  auto is = open_in(path);
  std::vector<unsigned char> bytes;
  read_into(is, bytes, kHeaderBytes - 4);  // the header minus section count
  Source src(bytes.data(), bytes.size());
  return get_raw_header(src);
}

}  // namespace pg::io
