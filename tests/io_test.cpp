// pg::io regression suite over the checked-in golden corpus
// (tests/golden/): byte-exact round trips for all three payload kinds,
// rejection of bad magic / versions / schema hashes, truncation and
// corrupt-section-table error paths, and the graph builder pinned against
// the golden text dumps (any encoder/builder drift fails here first). The
// frozen dense-feature fixtures (tests/golden_legacy/) must decode to their
// regenerated counterparts and re-encode to those files' bytes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "io/binary.hpp"
#include "io/dataset_view.hpp"
#include "io/pgraph_io.hpp"
#include "model/encoding.hpp"
#include "pgds_v1.hpp"

#if !defined(PG_GOLDEN_DIR) || !defined(PG_GOLDEN_LEGACY_DIR)
#error "PG_GOLDEN_DIR / PG_GOLDEN_LEGACY_DIR must point at the golden corpora"
#endif

namespace pg {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(PG_GOLDEN_DIR) + "/" + name;
}

std::string legacy_path(const std::string& name) {
  return std::string(PG_GOLDEN_LEGACY_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(is)) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// One MANIFEST.txt corpus line, e.g.
/// "matvec_cpu kernel=matvec variant=cpu teams=1 threads=8 ...".
struct ManifestEntry {
  std::string name;
  std::map<std::string, std::string> fields;

  [[nodiscard]] std::int64_t int_field(const std::string& key) const {
    return std::stoll(fields.at(key));
  }
};

struct Manifest {
  std::uint64_t schema_hash = 0;
  double child_weight_scale = 0.0;
  std::vector<ManifestEntry> entries;
};

// gtest ASSERT_* macros require a void function, hence the out-param.
void read_manifest(Manifest& manifest) {
  std::istringstream is(slurp(golden_path("MANIFEST.txt")));
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string head;
    fields >> head;
    if (head == "format-version") continue;
    if (head == "schema-hash") {
      std::string hex;
      fields >> hex;
      manifest.schema_hash = std::stoull(hex, nullptr, 16);
      continue;
    }
    if (head == "child-weight-scale") {
      std::string value;
      fields >> value;
      manifest.child_weight_scale = std::stod(value);
      continue;
    }
    ManifestEntry entry;
    entry.name = head;
    std::string kv;
    while (fields >> kv) {
      const auto eq = kv.find('=');
      ASSERT_NE(eq, std::string::npos) << line;
      entry.fields[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
    manifest.entries.push_back(std::move(entry));
  }
  ASSERT_FALSE(manifest.entries.empty());
}


graph::ProgramGraph build_from_golden_source(const ManifestEntry& entry) {
  const std::string source = slurp(golden_path(entry.name + ".c"));
  const frontend::ParseResult parsed = frontend::parse_source(source);
  EXPECT_TRUE(parsed.ok()) << parsed.diagnostics.summary();
  graph::BuildOptions options;
  options.representation = graph::Representation::kParaGraph;
  const bool gpu = entry.fields.at("variant").rfind("gpu", 0) == 0;
  const std::int64_t teams = entry.int_field("teams");
  const std::int64_t threads = entry.int_field("threads");
  options.parallel_workers = gpu ? teams * threads : threads;
  return graph::build_graph(parsed.root(), options);
}

// --- feature-order contract ----------------------------------------------

TEST(IoSchema, HashIsStableAcrossCalls) {
  EXPECT_EQ(io::feature_schema_hash(), io::feature_schema_hash());
  EXPECT_NE(io::feature_schema_hash(), 0u);
}

TEST(IoSchema, HashMatchesGoldenManifest) {
  Manifest manifest;
  ASSERT_NO_FATAL_FAILURE(read_manifest(manifest));
  EXPECT_EQ(io::feature_schema_hash(), manifest.schema_hash)
      << "the node-kind/edge-type feature contract changed; regenerate "
         "tests/golden with paragraph-cli corpus --golden (and bump the "
         "format version if files in the wild must stay readable)";
}

// --- golden pinning -------------------------------------------------------

TEST(IoGolden, BuilderMatchesGoldenTextDumps) {
  Manifest manifest;
  ASSERT_NO_FATAL_FAILURE(read_manifest(manifest));
  for (const ManifestEntry& entry : manifest.entries) {
    const graph::ProgramGraph graph = build_from_golden_source(entry);
    std::ostringstream text;
    graph.serialize(text);
    EXPECT_EQ(text.str(), slurp(golden_path(entry.name + ".pgraph.txt")))
        << entry.name << ": builder output drifted from the golden dump";
  }
}

TEST(IoGolden, BinaryGraphsMatchGoldenFiles) {
  Manifest manifest;
  ASSERT_NO_FATAL_FAILURE(read_manifest(manifest));
  for (const ManifestEntry& entry : manifest.entries) {
    const graph::ProgramGraph graph = build_from_golden_source(entry);
    std::ostringstream os(std::ios::binary);
    io::write_graph(os, graph);
    EXPECT_EQ(os.str(), slurp(golden_path(entry.name + ".pgraph")))
        << entry.name << ": binary graph encoding drifted";
  }
}

TEST(IoGolden, EncodedSamplesMatchGoldenFiles) {
  Manifest manifest;
  ASSERT_NO_FATAL_FAILURE(read_manifest(manifest));

  const io::DatasetMeta meta = io::DatasetView(golden_path("corpus.pgds")).meta();
  EXPECT_DOUBLE_EQ(meta.child_weight_scale, manifest.child_weight_scale);

  model::SampleSet scalers;
  meta.apply_scalers(scalers);

  for (const ManifestEntry& entry : manifest.entries) {
    const graph::ProgramGraph graph = build_from_golden_source(entry);
    const model::TrainingSample stored =
        io::read_sample_file(golden_path(entry.name + ".psample"));

    model::TrainingSample rebuilt;
    rebuilt.graph = model::encode_graph(graph, meta.child_weight_scale);
    rebuilt.aux = {static_cast<float>(scalers.teams_scaler.transform(
                       static_cast<double>(entry.int_field("teams")))),
                   static_cast<float>(scalers.threads_scaler.transform(
                       static_cast<double>(entry.int_field("threads"))))};
    rebuilt.runtime_us = std::stod(entry.fields.at("runtime_us"));
    rebuilt.target_scaled = scalers.to_target(rebuilt.runtime_us);
    rebuilt.app_id = stored.app_id;
    rebuilt.app_name = stored.app_name;
    rebuilt.variant = stored.variant;

    std::ostringstream rebuilt_bytes(std::ios::binary);
    io::write_sample(rebuilt_bytes, rebuilt);
    EXPECT_EQ(rebuilt_bytes.str(), slurp(golden_path(entry.name + ".psample")))
        << entry.name << ": sample encoding drifted";
  }
}

// --- byte-exact round trips ----------------------------------------------

TEST(IoRoundTrip, GraphBytesAreStable) {
  const std::string original = slurp(golden_path("matvec_cpu.pgraph"));
  std::istringstream is(original, std::ios::binary);
  const graph::ProgramGraph graph = io::read_graph(is);
  std::ostringstream os(std::ios::binary);
  io::write_graph(os, graph);
  EXPECT_EQ(os.str(), original);
}

TEST(IoRoundTrip, GraphContentsSurvive) {
  const graph::ProgramGraph graph =
      io::read_graph_file(golden_path("corr_gpu_mem.pgraph"));
  std::ostringstream os(std::ios::binary);
  io::write_graph(os, graph);
  std::istringstream is(os.str(), std::ios::binary);
  const graph::ProgramGraph again = io::read_graph(is);
  ASSERT_EQ(again.num_nodes(), graph.num_nodes());
  ASSERT_EQ(again.num_edges(), graph.num_edges());
  for (std::size_t i = 0; i < graph.num_edges(); ++i)
    EXPECT_EQ(again.edges()[i], graph.edges()[i]) << "edge " << i;
  for (std::size_t i = 0; i < graph.num_nodes(); ++i) {
    EXPECT_EQ(again.nodes()[i].kind, graph.nodes()[i].kind) << "node " << i;
    EXPECT_EQ(again.nodes()[i].label, graph.nodes()[i].label) << "node " << i;
  }
}

TEST(IoRoundTrip, SampleBytesAreStable) {
  const std::string original =
      slurp(golden_path("matmul_gpu_collapse_mem.psample"));
  std::istringstream is(original, std::ios::binary);
  const model::TrainingSample sample = io::read_sample(is);
  std::ostringstream os(std::ios::binary);
  io::write_sample(os, sample);
  EXPECT_EQ(os.str(), original);

  // Spot-check decoded contents, down to feature bits.
  EXPECT_EQ(sample.variant, "gpu_collapse_mem");
  EXPECT_EQ(sample.graph.literals.size(), sample.graph.num_nodes());
  EXPECT_EQ(sample.graph.num_nodes(), sample.graph.relations.num_nodes);
  EXPECT_DOUBLE_EQ(sample.runtime_us, 850.0);
}

TEST(IoRoundTrip, DatasetBytesAreStable) {
  const std::string original = slurp(golden_path("corpus.pgds"));
  const io::StoredSampleSet stored =
      io::load_sample_set(io::DatasetView(original.data(), original.size()));
  EXPECT_EQ(stored.set.train.size(), 4u);
  EXPECT_EQ(stored.set.validation.size(), 0u);

  std::ostringstream os(std::ios::binary);
  io::write_sample_set(os, stored.set, stored.meta.platform,
                       stored.meta.representation, stored.meta.seed);
  EXPECT_EQ(os.str(), original);
}

TEST(IoRoundTrip, OffsetScanFindsTheIndexedRecords) {
  // The golden corpus minus its index is a v1 file: the offset scan must
  // find the frames the index names and decode them to the same samples.
  const std::string v2 = slurp(golden_path("corpus.pgds"));
  const std::string v1 = test_io::strip_to_v1(v2);
  const io::DatasetView indexed(v2.data(), v2.size());
  const io::DatasetView scanned(v1.data(), v1.size());
  EXPECT_EQ(indexed.format_version(), 2);
  EXPECT_EQ(scanned.format_version(), 1);
  EXPECT_TRUE(indexed.has_checksums());
  EXPECT_FALSE(scanned.has_checksums());
  ASSERT_EQ(indexed.size(), 4u);
  ASSERT_EQ(scanned.size(), 4u);
  model::TrainingSample from_index;
  model::TrainingSample from_scan;
  for (std::size_t i = 0; i < indexed.size(); ++i) {
    EXPECT_EQ(scanned.record_offset(i), indexed.record_offset(i)) << i;
    EXPECT_EQ(scanned.record_length(i), indexed.record_length(i)) << i;
    EXPECT_EQ(scanned.split(i), io::Split::kTrain) << i;
    indexed.decode(i, from_index);
    scanned.decode(i, from_scan);
    EXPECT_TRUE(io::encode_sample(from_scan) == io::encode_sample(from_index))
        << "record " << i;
  }
}

// --- the frozen dense-feature fixtures ------------------------------------

constexpr const char* kGoldenSampleNames[] = {
    "matvec_cpu", "matmul_gpu_collapse_mem", "corr_gpu_mem",
    "gauss_seidel_cpu_collapse"};

/// Field-by-field equality of two decoded samples, bits for floats.
void expect_same_sample(const model::TrainingSample& a,
                        const model::TrainingSample& b,
                        const std::string& label) {
  EXPECT_EQ(a.graph.kinds, b.graph.kinds) << label;
  ASSERT_EQ(a.graph.literals.size(), b.graph.literals.size()) << label;
  for (std::size_t i = 0; i < a.graph.literals.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a.graph.literals[i]),
              std::bit_cast<std::uint32_t>(b.graph.literals[i]))
        << label << " literal " << i;
  ASSERT_EQ(a.graph.relations.num_nodes, b.graph.relations.num_nodes) << label;
  ASSERT_EQ(a.graph.relations.relations.size(),
            b.graph.relations.relations.size())
      << label;
  for (std::size_t r = 0; r < a.graph.relations.relations.size(); ++r)
    EXPECT_EQ(a.graph.relations.relations[r].to_edges(),
              b.graph.relations.relations[r].to_edges())
        << label << " relation " << r;
  EXPECT_EQ(a.aux, b.aux) << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.target_scaled),
            std::bit_cast<std::uint64_t>(b.target_scaled))
      << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.runtime_us),
            std::bit_cast<std::uint64_t>(b.runtime_us))
      << label;
  EXPECT_EQ(a.app_id, b.app_id) << label;
  EXPECT_EQ(a.app_name, b.app_name) << label;
  EXPECT_EQ(a.variant, b.variant) << label;
}

TEST(IoLegacy, DenseSamplesDecodeToTheRegeneratedSamples) {
  for (const char* name : kGoldenSampleNames) {
    const std::string file = std::string(name) + ".psample";
    io::FeatureSectionInfo legacy_info;
    io::FeatureSectionInfo new_info;
    const model::TrainingSample legacy =
        io::read_sample_file(legacy_path(file), &legacy_info);
    const model::TrainingSample current =
        io::read_sample_file(golden_path(file), &new_info);
    expect_same_sample(legacy, current, file);
    EXPECT_TRUE(legacy_info.from_dense) << file;
    EXPECT_FALSE(new_info.from_dense) << file;
    const std::size_t n = current.graph.num_nodes();
    EXPECT_EQ(legacy_info.bytes, 16 + n * model::kNodeFeatureDim * 4) << file;
    EXPECT_EQ(new_info.bytes, 16 + n * 5) << file;
    // Written back, a converted sample is the regenerated file, byte for
    // byte: writers emit only the kind/literal layout.
    EXPECT_TRUE(io::encode_sample(legacy) == slurp(golden_path(file))) << file;
  }
}

TEST(IoLegacy, DenseCorporaDecodeToTheRegeneratedCorpora) {
  // Both frozen corpora — v1 through the offset scan, v2 through the index —
  // decode to the regenerated corpus's samples and, written back, are its
  // bytes.
  const std::string regenerated = slurp(golden_path("corpus.pgds"));
  const io::StoredSampleSet current = io::load_sample_set(
      io::DatasetView(regenerated.data(), regenerated.size()));
  for (const auto& [file, version] :
       {std::pair{"corpus.pgds", std::uint16_t{1}},
        std::pair{"corpus_v2.pgds", std::uint16_t{2}}}) {
    const io::DatasetView view(legacy_path(file));
    EXPECT_EQ(view.format_version(), version) << file;
    const io::StoredSampleSet legacy = io::load_sample_set(view);
    ASSERT_EQ(legacy.set.train.size(), current.set.train.size()) << file;
    ASSERT_EQ(legacy.set.validation.size(), current.set.validation.size());
    for (std::size_t i = 0; i < legacy.set.train.size(); ++i)
      expect_same_sample(legacy.set.train[i], current.set.train[i],
                         std::string(file) + " record " + std::to_string(i));
    EXPECT_EQ(legacy.meta.platform, current.meta.platform) << file;
    EXPECT_EQ(legacy.meta.representation, current.meta.representation);
    EXPECT_EQ(legacy.meta.seed, current.meta.seed) << file;
    EXPECT_EQ(legacy.meta.child_weight_scale, current.meta.child_weight_scale);
    EXPECT_EQ(legacy.meta.target_min, current.meta.target_min) << file;
    EXPECT_EQ(legacy.meta.target_max, current.meta.target_max) << file;

    std::ostringstream os(std::ios::binary);
    io::write_sample_set(os, legacy.set, legacy.meta.platform,
                         legacy.meta.representation, legacy.meta.seed);
    EXPECT_TRUE(os.str() == regenerated) << file;
    // The kind/literal layout is what shrinks the corpus.
    EXPECT_LT(regenerated.size() * 3, slurp(legacy_path(file)).size())
        << file;
  }
}

TEST(IoLegacy, StrippedV2IsTheV1WritersBytes) {
  // The frozen v1 corpus came from the former v1 writer and its v2 sibling
  // from reindexing it, so stripping the index off the v2 file must give
  // back the v1 bytes: what the suites' v1 inputs are built by.
  EXPECT_TRUE(test_io::strip_to_v1(slurp(legacy_path("corpus_v2.pgds"))) ==
              slurp(legacy_path("corpus.pgds")));
}

// --- rejection paths ------------------------------------------------------

using Bytes = std::string;

void expect_rejected(Bytes bytes, const char* what) {
  std::istringstream is(std::move(bytes), std::ios::binary);
  EXPECT_THROW(io::read_graph(is), io::FormatError) << what;
}

TEST(IoReject, BadMagic) {
  Bytes bytes = slurp(golden_path("matvec_cpu.pgraph"));
  bytes[0] = 'X';
  expect_rejected(std::move(bytes), "bad magic");
}

TEST(IoReject, EmptyFile) { expect_rejected({}, "empty file"); }

TEST(IoReject, FutureFormatVersion) {
  Bytes bytes = slurp(golden_path("matvec_cpu.pgraph"));
  bytes[8] = 0x7f;  // u16 version little-endian low byte
  expect_rejected(std::move(bytes), "future version");
}

TEST(IoReject, WrongPayloadKind) {
  // A valid sample file is not a graph file.
  Bytes bytes = slurp(golden_path("matvec_cpu.psample"));
  expect_rejected(std::move(bytes), "wrong kind");

  std::istringstream is(slurp(golden_path("matvec_cpu.pgraph")),
                        std::ios::binary);
  EXPECT_THROW(io::read_sample(is), io::FormatError);
}

TEST(IoReject, SchemaHashMismatch) {
  Bytes bytes = slurp(golden_path("matvec_cpu.pgraph"));
  bytes[12] = static_cast<char>(bytes[12] ^ 0x5a);  // u64 schema hash
  expect_rejected(std::move(bytes), "schema mismatch");
}

TEST(IoReject, TruncatedAtEveryPrefix) {
  const Bytes bytes = slurp(golden_path("matvec_cpu.pgraph"));
  // Every proper prefix must throw FormatError — never crash, never succeed.
  for (std::size_t len = 0; len < bytes.size();
       len += (len < 64 ? 1 : 97)) {
    std::istringstream is(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW(io::read_graph(is), io::FormatError) << "prefix " << len;
  }
}

TEST(IoReject, CorruptSectionCount) {
  Bytes bytes = slurp(golden_path("matvec_cpu.pgraph"));
  // u32 section count at offset 20.
  bytes[20] = 0;
  bytes[21] = 0;
  expect_rejected(std::move(bytes), "zero sections");

  Bytes huge = slurp(golden_path("matvec_cpu.pgraph"));
  huge[20] = static_cast<char>(0xff);
  huge[21] = static_cast<char>(0xff);
  expect_rejected(std::move(huge), "implausible section count");
}

TEST(IoReject, CorruptSectionSize) {
  // First table entry: id at 24..27, u64 size at 28..35.
  Bytes grown = slurp(golden_path("matvec_cpu.pgraph"));
  grown[28] = static_cast<char>(grown[28] + 1);  // size+1 -> overruns payload
  expect_rejected(std::move(grown), "grown section size");

  Bytes shrunk = slurp(golden_path("matvec_cpu.pgraph"));
  shrunk[28] = static_cast<char>(shrunk[28] - 1);  // size-1 -> section overrun
  expect_rejected(std::move(shrunk), "shrunk section size");

  Bytes absurd = slurp(golden_path("matvec_cpu.pgraph"));
  absurd[34] = static_cast<char>(0x7f);  // ~2^55 bytes
  expect_rejected(std::move(absurd), "absurd section size");
}

TEST(IoReject, DuplicateSectionId) {
  Bytes bytes = slurp(golden_path("matvec_cpu.pgraph"));
  // Overwrite the edges-section id (second table entry, offset 36) with the
  // nodes-section id (first entry, offset 24).
  for (int i = 0; i < 4; ++i) bytes[36 + i] = bytes[24 + i];
  expect_rejected(std::move(bytes), "duplicate section id");
}

TEST(IoReject, CorruptNodeCount) {
  Bytes bytes = slurp(golden_path("matvec_cpu.pgraph"));
  // Node count is the first u64 of the first section payload (offset 48).
  for (int i = 0; i < 8; ++i) bytes[48 + i] = static_cast<char>(0xff);
  expect_rejected(std::move(bytes), "absurd node count");
}

TEST(IoReject, UnknownSectionsAreSkipped) {
  // Forward compatibility: an extra section with an unknown id must be
  // ignored, not rejected. Rebuild the file with a third section.
  const Bytes original = slurp(golden_path("matvec_cpu.pgraph"));
  const std::string extra_payload = "future bytes";

  std::ostringstream os(std::ios::binary);
  io::StreamSink sink{os};
  os.write(original.data(), 20);         // magic + version + kind + schema
  io::put_u32(sink, 3);                  // section count 2 -> 3
  os.write(original.data() + 24, 24);    // the two original table entries
  io::put_u32(sink, 0x7fff);             // unknown section id
  io::put_u64(sink, extra_payload.size());
  os.write(original.data() + 48,
           static_cast<std::streamsize>(original.size() - 48));  // payloads
  os.write(extra_payload.data(),
           static_cast<std::streamsize>(extra_payload.size()));

  std::istringstream is(os.str(), std::ios::binary);
  const graph::ProgramGraph graph = io::read_graph(is);
  EXPECT_EQ(graph.num_nodes(), 59u);
  EXPECT_EQ(graph.num_edges(), 123u);
}

// The dataset cases run on the golden corpus and on its index-stripped v1
// form, so both the index checks and the offset scan's frame checks are
// held to them.
std::vector<Bytes> golden_corpus_both_versions() {
  const Bytes v2 = slurp(golden_path("corpus.pgds"));
  return {v2, test_io::strip_to_v1(v2)};
}

void expect_load_rejected(const Bytes& bytes) {
  EXPECT_THROW(
      (void)io::load_sample_set(io::DatasetView(bytes.data(), bytes.size())),
      io::FormatError)
      << "format v" << int{bytes[8]};
}

TEST(IoReject, DatasetDroppedTail) {
  // Chopping off the end marker (and part of the last record) must be
  // detected as truncation, not silently yield fewer records.
  for (const Bytes& bytes : golden_corpus_both_versions())
    expect_load_rejected(bytes.substr(0, bytes.size() - 20));
}

TEST(IoReject, DatasetCorruptRecordMarker) {
  for (Bytes bytes : golden_corpus_both_versions()) {
    // The first record marker sits right after header+table+meta.
    const auto pos = bytes.find("RECD");
    ASSERT_NE(pos, Bytes::npos);
    bytes[pos] = 'X';
    expect_load_rejected(bytes);
  }
}

TEST(IoReject, DatasetRecordErrorsCarryRecordIndex) {
  // A decode failure deep inside a record body must name which record died:
  // "which sample of the million" is the first thing a corpus-corruption
  // report needs, and a bare FormatError used to lose it.
  for (Bytes bytes : golden_corpus_both_versions()) {
    // Poison the split tag of the third record. Each record is framed as
    // "RECD" + u64 body size + body, and the split tag is the body's first
    // byte (offset marker + 4 + 8). Walk frame-by-frame from the first
    // marker (a bytewise search past it could false-match "RECD" inside a
    // body).
    std::size_t marker = bytes.find("RECD");
    ASSERT_NE(marker, Bytes::npos);
    auto u64_at = [&bytes](std::size_t off) {
      std::uint64_t v = 0;
      for (std::size_t i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[off + i]))
             << (8 * i);
      return v;
    };
    for (int skipped = 0; skipped < 2; ++skipped) {
      marker += 12 + u64_at(marker + 4);
      ASSERT_LT(marker + 12, bytes.size());
      ASSERT_EQ(bytes.compare(marker, 4, "RECD"), 0);
    }
    bytes[marker + 12] = '\xff';

    // v1: the offset scan rejects the tag at open; v2: the record's
    // checksum no longer matches when it is decoded.
    try {
      (void)io::load_sample_set(io::DatasetView(bytes.data(), bytes.size()));
      FAIL() << "expected FormatError";
    } catch (const io::FormatError& e) {
      EXPECT_NE(std::string(e.what()).find("dataset record 2"),
                std::string::npos)
          << "error message lost the record index: " << e.what();
    }
  }
}

TEST(IoReject, SampleRelationCorruptLocalIndex) {
  // Flip a relation-edge local index deep inside a .psample and verify the
  // validator refuses it (otherwise it would index out of bounds inside the
  // RGAT gather). The CSR in-memory form cannot even represent this
  // corruption (dst_local is re-derived from group_dst on write), so patch
  // the on-disk bytes: walk header + section table to the relations section
  // and poison the first edge record's dst_local field.
  const model::TrainingSample sample =
      io::read_sample_file(golden_path("matvec_cpu.psample"));
  ASSERT_FALSE(sample.graph.relations.relations[0].empty());
  Bytes bytes = slurp(golden_path("matvec_cpu.psample"));

  auto u64_at = [&bytes](std::size_t off) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes[off + i]))
           << (8 * i);
    return v;
  };
  // Header: magic(8) version(2) kind(2) schema(8) section-count(4) = 24,
  // then 3 section-table entries of u32 id + u64 size. Sections follow in
  // table order: meta, features, relations.
  const std::size_t meta_size = u64_at(24 + 4);
  const std::size_t features_size = u64_at(24 + 12 + 4);
  const std::size_t relations_start = 24 + 3 * 12 + meta_size + features_size;
  // Relations payload: u64 num_nodes, u32 num_relations, u64 edge count,
  // then 20-byte edge records (src, dst, src_local, dst_local, gate); the
  // first edge's dst_local sits 12 bytes into its record.
  const std::size_t dst_local_off = relations_start + 8 + 4 + 8 + 12;
  ASSERT_LT(dst_local_off + 4, bytes.size());
  bytes[dst_local_off] = '\xff';
  bytes[dst_local_off + 1] = '\xff';
  bytes[dst_local_off + 2] = '\xff';
  bytes[dst_local_off + 3] = '\x00';

  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW(io::read_sample(is), io::FormatError);
}

TEST(IoReject, FormatErrorsAreNotInternalErrors) {
  // Corrupt input must never surface as pg::InternalError (which means
  // "library bug") — the two error channels stay distinct.
  Bytes bytes = slurp(golden_path("matvec_cpu.pgraph"));
  bytes[0] = 'X';
  std::istringstream is(bytes, std::ios::binary);
  try {
    (void)io::read_graph(is);
    FAIL() << "expected FormatError";
  } catch (const io::FormatError&) {
    SUCCEED();
  }
}

TEST(IoReject, MissingFile) {
  EXPECT_THROW(io::read_graph_file("/nonexistent/never.pgraph"),
               io::FormatError);
  EXPECT_THROW(io::probe_file("/nonexistent/never.pgraph"), io::FormatError);
}

TEST(IoProbe, ReportsKindForAllGoldenKinds) {
  EXPECT_EQ(io::probe_file(golden_path("matvec_cpu.pgraph")).kind,
            io::PayloadKind::kGraph);
  EXPECT_EQ(io::probe_file(golden_path("matvec_cpu.psample")).kind,
            io::PayloadKind::kSample);
  EXPECT_EQ(io::probe_file(golden_path("corpus.pgds")).kind,
            io::PayloadKind::kDataset);
}

}  // namespace
}  // namespace pg
