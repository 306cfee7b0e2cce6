// DatasetView: the one reader of .pgds corpora — mmap-backed (or over
// borrowed bytes), zero-copy, random access.
//
// Opening a view reads *no record bytes*: for a format-v2 file the record
// index appended by DatasetWriter (offset / length / split / FNV-1a body
// checksum per record, self-checksummed, located via a fixed footer at EOF)
// is validated arithmetically — contiguity from the first record, bounds
// against the mapping, split-tag range, end-marker agreement — without
// faulting a single record page. decode(i) then verifies record i's
// checksum and decodes exactly that record straight out of the mapping
// through the budget-enforcing Source, so a flipped body bit is a
// FormatError, never a sample, and corrupt index entries can never
// over-read the mapping.
//
// Format-v1 files (no index; no writer emits them any more) fall back to a
// one-pass offset scan of the record frames at open, minus the body decode.
// Random access and parallel shard loading then work identically, just
// without checksums; reindex_dataset upgrades such a file to v2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "io/pgraph_io.hpp"
#include "model/sample_store.hpp"

namespace pg::io {

class DatasetView {
 public:
  /// Opens `path` read-only and maps it; throws FormatError on malformed
  /// containers (and on I/O failure).
  explicit DatasetView(const std::string& path);

  /// View over bytes owned by the caller (must outlive the view). Same
  /// validation as the file constructor; nothing is copied.
  DatasetView(const void* data, std::size_t size);

  ~DatasetView();
  DatasetView(DatasetView&& other) noexcept;
  DatasetView& operator=(DatasetView&& other) noexcept;
  DatasetView(const DatasetView&) = delete;
  DatasetView& operator=(const DatasetView&) = delete;

  [[nodiscard]] const DatasetMeta& meta() const { return meta_; }
  [[nodiscard]] std::uint16_t format_version() const { return version_; }

  /// Record count.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Split tag of record `i` — straight from the index (v2) or the scan
  /// (v1); never decodes the record.
  [[nodiscard]] Split split(std::size_t i) const;

  /// True when per-record FNV-1a checksums are available (format v2) and
  /// verified on every decode.
  [[nodiscard]] bool has_checksums() const { return version_ >= 2; }

  /// Decodes record `i` into `sample`, replacing its contents. Thread-safe
  /// (const state + local cursor only). Throws FormatError with the record
  /// ordinal on any corruption, including checksum mismatches (v2).
  void decode(std::size_t i, model::TrainingSample& sample) const;

  /// File offset of record `i`'s frame ("RECD" marker byte).
  [[nodiscard]] std::uint64_t record_offset(std::size_t i) const;

  /// Whole-frame byte length of record `i` (12-byte header + body).
  [[nodiscard]] std::uint64_t record_length(std::size_t i) const;

 private:
  // reindex copies header/record bytes verbatim out of the mapping.
  friend void reindex_dataset(const std::string& in_path,
                              const std::string& out_path);

  struct Entry {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint64_t checksum = 0;
    Split split = Split::kTrain;
  };

  void open_bytes();  // parses header/meta and builds entries_

  const unsigned char* data_ = nullptr;
  std::size_t bytes_ = 0;
  void* mapping_ = nullptr;  // non-null only for the file constructor
  std::size_t mapping_bytes_ = 0;
  DatasetMeta meta_;
  std::uint16_t version_ = 0;
  std::uint64_t records_start_ = 0;
  std::vector<Entry> entries_;
};

/// Decodes every record of `view` into a SampleSet (scalers installed,
/// train/validation partitioned by split tag in record order): the way to
/// load a whole corpus, `io::load_sample_set(io::DatasetView(path))`.
/// `threads` > 0 pins the worker count; 0 uses the OpenMP default. Workers
/// decode disjoint index shards; assembly order is fixed, so the result is
/// thread-count-independent.
StoredSampleSet load_sample_set(const DatasetView& view, int threads = 0);

/// model::SampleStore over a DatasetView: load(i) decodes record i on
/// demand (out-of-core training never materialises the corpus).
class DatasetSampleStore final : public model::SampleStore {
 public:
  /// Borrows `view`; it must outlive the store.
  explicit DatasetSampleStore(const DatasetView& view) : view_(view) {}

  [[nodiscard]] std::size_t size() const override { return view_.size(); }

  void load(std::size_t i, model::TrainingSample& out) const override {
    view_.decode(i, out);
  }

 private:
  const DatasetView& view_;
};

/// Rewrites the .pgds at `in_path` as format v2 at `out_path`: header and
/// record frames are copied byte-verbatim (only the version field changes),
/// and a fresh index is computed from the record bytes. reindex of a v1
/// file is byte-identical to what DatasetWriter produces from the same
/// samples; v2 inputs are re-indexed. The output is written to a temporary
/// file next to `out_path` and renamed over it, so `out_path` may name the
/// input itself and a failed write leaves both files as they were.
void reindex_dataset(const std::string& in_path, const std::string& out_path);

}  // namespace pg::io
