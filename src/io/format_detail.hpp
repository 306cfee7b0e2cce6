// Internal codec machinery shared by the pg::io translation units
// (pgraph_io.cpp and dataset_view.cpp): container constants, the validated
// header/section-table prologue, the dataset record-body codec, and the
// format-v2 index-section layout. Nothing here is part of the public API —
// include pgraph_io.hpp / dataset_view.hpp instead.
#pragma once

#include <cstdint>
#include <vector>

#include "io/binary.hpp"
#include "io/pgraph_io.hpp"
#include "model/sample.hpp"

namespace pg::io::detail {

inline constexpr char kMagic[8] = {'P', 'G', 'I', 'O', 'B', 'I', 'N', '\x1a'};

// Section ids (high byte = payload family).
inline constexpr std::uint32_t kSecGraphNodes = 0x0101;
inline constexpr std::uint32_t kSecGraphEdges = 0x0102;
inline constexpr std::uint32_t kSecSampleMeta = 0x0201;
inline constexpr std::uint32_t kSecSampleFeatures = 0x0202;
inline constexpr std::uint32_t kSecSampleRelations = 0x0203;
inline constexpr std::uint32_t kSecDatasetMeta = 0x0301;

// Record-stream framing; the values spell "RECD" / "DEND" on disk.
inline constexpr std::uint32_t kRecordMarker = 0x44434552;
inline constexpr std::uint32_t kEndMarker = 0x444e4544;

// Format-v2 dataset index markers; "PGIX" opens the index section appended
// after the end marker, "PGIF" closes the fixed-size footer at EOF.
inline constexpr std::uint32_t kIndexMarker = 0x58494750;
inline constexpr std::uint32_t kIndexFooterMagic = 0x46494750;

// The word after a features section's row count names its layout: this
// value for one u8 kind and one f32 literal per node (every writer), or
// model::kNodeFeatureDim (45) for the legacy dense [rows x 45] f32 matrix,
// which readers convert. Readers predating the kind/literal layout require
// 45 there, so they reject the new layout with a FormatError.
inline constexpr std::uint64_t kFeatureLayoutKindLiteral = 2;

inline constexpr std::uint32_t kMaxSections = 64;
// 1 GiB: far above any legitimate section/record in this project, and the
// most a section-size field can make the istream entry points buffer (they
// still grow only as bytes arrive).
inline constexpr std::uint64_t kMaxSectionBytes = 1ull << 30;
// Containers are grown incrementally while bytes actually arrive, with at
// most this much capacity reserved up front — so a corrupt count field can
// never drive a giant allocation ahead of the reads that would expose it.
inline constexpr std::uint64_t kMaxPrealloc = 1ull << 16;

struct SectionEntry {
  std::uint32_t id = 0;
  std::uint64_t size = 0;
};

struct Prologue {
  FileInfo info;
  std::vector<SectionEntry> table;
};

FileInfo get_raw_header(Source& src);

/// Magic + kind + schema check plus the validated section table. Accepts
/// header versions in [1, max_version] (graphs/samples are version-1-only;
/// datasets also accept kDatasetFormatVersion).
Prologue get_prologue(Source& src, PayloadKind expected,
                      std::uint16_t max_version);

DatasetMeta get_dataset_meta(Source& src);

/// The split-tag-free sample body shared by .psample sections and .pgds
/// record frames (meta + features + relations, fully validated). A
/// FormatError names the part that failed and the byte offset reached.
model::TrainingSample get_sample_body(Source& src);

// --- FNV-1a (the format's checksum primitive) -----------------------------

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = kFnvBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Sink adapter that measures *and* checksums the bytes a codec emits —
/// the writer's one serialisation pass yields the record's frame size
/// and its index checksum together, so neither can drift from the bytes.
struct FnvCountingSink {
  std::uint64_t count = 0;
  std::uint64_t hash = kFnvBasis;
  void bytes(const void* data, std::size_t n) {
    hash = fnv1a(data, n, hash);
    count += n;
  }
};

// --- format-v2 index section ----------------------------------------------

/// One record in the v2 index: where the frame lives, how long it is
/// (marker + size field + body), its split tag, and the FNV-1a checksum of
/// the body bytes (split tag included — everything after the u64 size).
struct IndexEntry {
  std::uint64_t offset = 0;    // file offset of the "RECD" marker
  std::uint64_t length = 0;    // whole frame: 12-byte header + body
  std::uint64_t checksum = 0;  // FNV-1a over the body (length - 12 bytes)
  Split split = Split::kTrain;
};

inline constexpr std::uint64_t kIndexEntryBytes = 8 + 8 + 1 + 8;
/// Marker + record count + entries + index self-checksum.
inline constexpr std::uint64_t kIndexFixedBytes = 4 + 8 + 8;
/// u64 index offset + u64 index size + u32 footer magic, always at EOF.
inline constexpr std::uint64_t kIndexFooterBytes = 8 + 8 + 4;

inline std::uint64_t index_section_bytes(std::uint64_t records) {
  return kIndexFixedBytes + records * kIndexEntryBytes;
}

/// Serialises the index section (marker, count, entries, self-checksum).
/// The self-checksum covers the entry bytes exactly as written, so any
/// flipped index byte is caught before a single offset is trusted.
template <class Sink>
void put_dataset_index(Sink& sink, const std::vector<IndexEntry>& entries) {
  put_u32(sink, kIndexMarker);
  put_u64(sink, entries.size());
  FnvCountingSink hashed;
  for (const IndexEntry& e : entries) {
    put_u64(hashed, e.offset);
    put_u64(hashed, e.length);
    put_u8(hashed, static_cast<std::uint8_t>(e.split));
    put_u64(hashed, e.checksum);
    put_u64(sink, e.offset);
    put_u64(sink, e.length);
    put_u8(sink, static_cast<std::uint8_t>(e.split));
    put_u64(sink, e.checksum);
  }
  put_u64(sink, hashed.hash);
}

template <class Sink>
void put_index_footer(Sink& sink, std::uint64_t index_offset,
                      std::uint64_t index_size) {
  put_u64(sink, index_offset);
  put_u64(sink, index_size);
  put_u32(sink, kIndexFooterMagic);
}

}  // namespace pg::io::detail
