// The ParaGraph binary container format (see docs/FORMAT.md):
//
//   header   magic "PGIOBIN\x1A" | u16 version | u16 payload kind
//            | u64 feature-schema hash | u32 section count
//   table    section count x { u32 section id | u64 payload bytes }
//   payload  section payloads, concatenated in table order
//
// Three payload kinds share the container:
//   kGraph    (.pgraph)  — graph::ProgramGraph (nodes + edges sections)
//   kSample   (.psample) — model::TrainingSample (meta + features + relations)
//   kDataset  (.pgds)    — a DatasetMeta section followed by a *record
//                          stream* of framed samples and an offset/checksum
//                          index (the writer never buffers the file; every
//                          read goes through DatasetView, dataset_view.hpp)
//
// The feature-schema hash pins the feature-order contract: node-kind names
// in enum order, edge-type names in enum order, and the node feature width.
// Any reordering/renaming/resizing of those enums changes the hash, and
// files written under the old contract are rejected instead of silently
// decoding into wrong one-hot columns.
//
// All read paths throw io::FormatError on malformed input (bad magic, wrong
// version/kind, truncation, corrupt section table, inconsistent payloads) —
// never UB, never pg::InternalError.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/program_graph.hpp"
#include "io/binary.hpp"  // FormatError — part of every reader's contract
#include "model/sample.hpp"

namespace pg::io {

inline constexpr std::uint16_t kFormatVersion = 1;

/// The dataset (.pgds) container version DatasetWriter emits. Version 2
/// appends a record-offset index section (offset/length/split/FNV-1a
/// checksum per record + footer) after the end marker, enabling mmap-backed
/// random access via DatasetView. The record stream itself is byte-identical
/// to version 1, which DatasetView still reads (by an offset scan, without
/// checksums) and reindex_dataset upgrades. Graph/sample payloads stay at
/// kFormatVersion.
inline constexpr std::uint16_t kDatasetFormatVersion = 2;

enum class PayloadKind : std::uint16_t {
  kGraph = 1,
  kSample = 2,
  kDataset = 3,
  // 4 was `pgann` (the ANN index), removed; never reuse.
};

std::string_view payload_kind_name(PayloadKind kind);

/// FNV-1a hash of the feature-order contract (node-kind names, edge-type
/// names, feature width). Stored in every file header; a mismatch on read
/// means the enums changed since the file was written.
std::uint64_t feature_schema_hash();

// --- whole-graph files (.pgraph) -----------------------------------------

void write_graph(std::ostream& os, const graph::ProgramGraph& graph);
graph::ProgramGraph read_graph(std::istream& is);
void write_graph_file(const std::string& path, const graph::ProgramGraph& graph);
graph::ProgramGraph read_graph_file(const std::string& path);

// --- single-sample files (.psample) --------------------------------------

void write_sample(std::ostream& os, const model::TrainingSample& sample);
/// The bytes write_sample emits, as a string: the serve wire payload.
std::string encode_sample(const model::TrainingSample& sample);
/// What a sample's features section held (docs/FORMAT.md, "Features").
struct FeatureSectionInfo {
  std::uint64_t bytes = 0;  // the section's size in the container
  bool from_dense = false;  // the legacy dense layout, converted on read
};

/// Decodes one .psample container from [data, data + size) without copying
/// it — the decode every reader below shares. Either feature layout is
/// accepted; `features`, when given, reports which one and its size.
model::TrainingSample read_sample(const void* data, std::size_t size,
                                  FeatureSectionInfo* features = nullptr);
/// Buffers exactly the container's bytes from `is`, then read_sample(data,
/// size). The stream is left just past the container.
model::TrainingSample read_sample(std::istream& is,
                                  FeatureSectionInfo* features = nullptr);
void write_sample_file(const std::string& path, const model::TrainingSample& sample);
model::TrainingSample read_sample_file(const std::string& path,
                                       FeatureSectionInfo* features = nullptr);

// --- dataset files (.pgds) -----------------------------------------------

/// Provenance + the fitted scalers a deployment needs to interpret the
/// stored (already scaled) samples. Mirrors model::SampleSet's scaler state.
struct DatasetMeta {
  std::string platform;        // e.g. "NVIDIA V100 (GPU)"
  std::string representation;  // e.g. "ParaGraph"
  std::uint64_t seed = 0;      // generation seed (0 = not applicable)
  bool log_target = false;
  double child_weight_scale = 1.0;
  double target_min = 0.0, target_max = 1.0;
  double teams_min = 0.0, teams_max = 1.0;
  double threads_min = 0.0, threads_max = 1.0;

  /// Copies the scaler state (not provenance) out of a sample set.
  static DatasetMeta scalers_from(const model::SampleSet& set);

  /// Installs the scaler state into a sample set.
  void apply_scalers(model::SampleSet& set) const;
};

enum class Split : std::uint8_t { kTrain = 0, kValidation = 1 };

namespace detail {
struct IndexEntry;  // format_detail.hpp — v2 index bookkeeping
}

/// Streams samples into a format-v2 .pgds container. Header + meta are
/// written by the constructor, each append() frames and writes one record
/// immediately (tracking its offset/length/split/checksum), and finish()
/// seals the stream with an end marker carrying the record count, then
/// appends the index section + footer. The destructor finishes
/// automatically.
class DatasetWriter {
 public:
  DatasetWriter(std::ostream& os, const DatasetMeta& meta);
  ~DatasetWriter();
  DatasetWriter(const DatasetWriter&) = delete;
  DatasetWriter& operator=(const DatasetWriter&) = delete;

  void append(const model::TrainingSample& sample, Split split);
  void finish();

 private:
  std::ostream& os_;
  std::uint64_t records_ = 0;
  std::uint64_t offset_ = 0;  // bytes emitted so far (index bookkeeping)
  std::vector<detail::IndexEntry> index_;
  bool finished_ = false;
};

/// A deserialised dataset (io::load_sample_set): the sample set (scalers
/// installed) + provenance.
struct StoredSampleSet {
  model::SampleSet set;
  DatasetMeta meta;
};

/// Writes a whole SampleSet (train + validation, scalers from the set) with
/// the given provenance fields. Read it back with
/// io::load_sample_set(io::DatasetView(path)).
void write_sample_set(std::ostream& os, const model::SampleSet& set,
                      const std::string& platform,
                      const std::string& representation, std::uint64_t seed);
void write_sample_set_file(const std::string& path, const model::SampleSet& set,
                           const std::string& platform,
                           const std::string& representation,
                           std::uint64_t seed);

// --- probing --------------------------------------------------------------

struct FileInfo {
  std::uint16_t version = 0;
  PayloadKind kind = PayloadKind::kGraph;
  std::uint64_t schema_hash = 0;
};

/// Reads just the fixed header (magic/version/kind/schema); for dispatching
/// on file kind (paragraph-cli dump) without decoding payloads. Unlike the
/// full readers this accepts any version/kind — only the magic must match.
FileInfo probe_file(const std::string& path);

}  // namespace pg::io
