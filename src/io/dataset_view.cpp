// DatasetView implementation: cold open validates the v2 index (or scans v1
// frames) without decoding a record; decode(i) checks and decodes exactly
// one record out of the mapping. See dataset_view.hpp for the contract.
#include "io/dataset_view.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string_view>
#include <utility>

#include "io/format_detail.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"

namespace pg::io {
namespace {

/// The one corrupt-record report: the record ordinal, the file offset of
/// its frame and, once the frame header has been read, the body size —
/// "which sample of the million, and where in the file" is the whole of a
/// corruption report: "corrupt dataset record N (B-byte frame at byte
/// offset O): WHAT", or "(frame header at byte offset O)" while `body` is 0
/// (no valid frame has an empty body).
[[noreturn]] void throw_record_error(std::uint64_t ordinal,
                                     std::uint64_t offset, std::uint64_t body,
                                     const char* what) {
  throw FormatError(
      "corrupt dataset record " + std::to_string(ordinal) + " (" +
      (body == 0 ? std::string("frame header")
                 : std::to_string(body) + "-byte frame") +
      " at byte offset " + std::to_string(offset) + "): " + what);
}

}  // namespace

DatasetView::DatasetView(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw FormatError("cannot open for reading: " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw FormatError("cannot stat: " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    throw FormatError("truncated file: unexpected end of data");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) throw FormatError("cannot mmap: " + path);
  mapping_ = map;
  mapping_bytes_ = size;
  data_ = static_cast<const unsigned char*>(map);
  bytes_ = size;
  try {
    open_bytes();
  } catch (...) {
    ::munmap(mapping_, mapping_bytes_);
    throw;  // the destructor will not run for a throwing constructor
  }
}

DatasetView::DatasetView(const void* data, std::size_t size)
    : data_(static_cast<const unsigned char*>(data)), bytes_(size) {
  open_bytes();
}

DatasetView::~DatasetView() {
  if (mapping_ != nullptr) ::munmap(mapping_, mapping_bytes_);
}

DatasetView::DatasetView(DatasetView&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)),
      mapping_(std::exchange(other.mapping_, nullptr)),
      mapping_bytes_(std::exchange(other.mapping_bytes_, 0)),
      meta_(std::move(other.meta_)),
      version_(other.version_),
      records_start_(other.records_start_),
      entries_(std::move(other.entries_)) {}

DatasetView& DatasetView::operator=(DatasetView&& other) noexcept {
  if (this != &other) {
    if (mapping_ != nullptr) ::munmap(mapping_, mapping_bytes_);
    data_ = std::exchange(other.data_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
    mapping_ = std::exchange(other.mapping_, nullptr);
    mapping_bytes_ = std::exchange(other.mapping_bytes_, 0);
    meta_ = std::move(other.meta_);
    version_ = other.version_;
    records_start_ = other.records_start_;
    entries_ = std::move(other.entries_);
  }
  return *this;
}

void DatasetView::open_bytes() {
  namespace d = detail;
  Source src(data_, bytes_);
  const d::Prologue prologue =
      d::get_prologue(src, PayloadKind::kDataset, kDatasetFormatVersion);
  version_ = prologue.info.version;
  bool have_meta = false;
  for (const d::SectionEntry& entry : prologue.table) {
    src.push_budget(entry.size);
    if (entry.id == d::kSecDatasetMeta) {
      meta_ = d::get_dataset_meta(src);
      have_meta = true;
    } else {
      src.skip(entry.size);
    }
    src.pop_budget();
  }
  if (!have_meta)
    throw FormatError("corrupt dataset file: missing meta section");
  records_start_ = src.consumed();

  if (version_ >= 2) {
    // --- v2: locate the index via the footer; validate arithmetically ---
    // (no record page is touched — only the footer, the index itself, and
    // the 12 end-marker bytes directly before it).
    if (bytes_ < records_start_ + 12 + d::kIndexFixedBytes +
                     d::kIndexFooterBytes)
      throw FormatError(
          "corrupt dataset file: too small to hold an end marker, index "
          "section, and footer");
    Source foot(data_ + bytes_ - d::kIndexFooterBytes, d::kIndexFooterBytes);
    const std::uint64_t index_offset = get_u64(foot);
    const std::uint64_t index_size = get_u64(foot);
    if (get_u32(foot) != d::kIndexFooterMagic)
      throw FormatError("corrupt dataset file: bad index footer magic");
    if (index_size < d::kIndexFixedBytes ||
        index_size > bytes_ - d::kIndexFooterBytes ||
        index_offset != bytes_ - d::kIndexFooterBytes - index_size ||
        index_offset < records_start_ + 12)
      throw FormatError(
          "corrupt dataset file: index footer does not describe a section "
          "inside the file");

    Source isrc(data_ + index_offset, static_cast<std::size_t>(index_size));
    if (get_u32(isrc) != d::kIndexMarker)
      throw FormatError("corrupt dataset file: bad index section marker");
    const std::uint64_t count = get_u64(isrc);
    // Validate the count against the section's actual byte budget *before*
    // sizing any container for it (hostile-input rule: corrupt counts must
    // fail before they allocate).
    if (count != (index_size - d::kIndexFixedBytes) / d::kIndexEntryBytes ||
        count * d::kIndexEntryBytes != index_size - d::kIndexFixedBytes)
      throw FormatError(
          "corrupt dataset file: index count does not match the index "
          "section size");
    if (count > kMaxReasonableCount)
      throw FormatError("corrupt count field: index record count");
    const std::uint64_t stored_hash = [&] {
      Source tail(data_ + index_offset + index_size - 8, 8);
      return get_u64(tail);
    }();
    if (stored_hash !=
        d::fnv1a(data_ + index_offset + 12,
                 static_cast<std::size_t>(count * d::kIndexEntryBytes)))
      throw FormatError(
          "corrupt dataset file: index self-checksum mismatch (index bytes "
          "were altered; 'index' section at byte offset " +
          std::to_string(index_offset) + ")");

    entries_.reserve(static_cast<std::size_t>(count));
    std::uint64_t expect = records_start_;
    const std::uint64_t records_end = index_offset - 12;  // end-marker frame
    for (std::uint64_t i = 0; i < count; ++i) {
      Entry e;
      e.offset = get_u64(isrc);
      e.length = get_u64(isrc);
      const std::uint8_t split_raw = get_u8(isrc);
      e.checksum = get_u64(isrc);
      const std::string at = " in index entry " + std::to_string(i);
      if (e.offset != expect)
        throw FormatError("corrupt dataset file: record offset not "
                          "contiguous" + at);
      if (e.length < 13 || e.length > d::kMaxSectionBytes + 12)
        throw FormatError("corrupt dataset file: implausible record length" +
                          at);
      if (split_raw > static_cast<std::uint8_t>(Split::kValidation))
        throw FormatError("corrupt dataset file: bad split tag" + at);
      e.split = static_cast<Split>(split_raw);
      expect += e.length;  // <= records_end + 2^30 + 12: cannot overflow
      if (expect > records_end)
        throw FormatError("corrupt dataset file: record extends past the "
                          "record stream" + at);
      entries_.push_back(e);
    }
    if (expect != records_end)
      throw FormatError(
          "corrupt dataset file: index does not span the record stream");
    Source dend(data_ + records_end, 12);
    if (get_u32(dend) != d::kEndMarker)
      throw FormatError("corrupt dataset file: missing end marker before "
                        "the index");
    if (get_u64(dend) != count)
      throw FormatError("corrupt dataset file: record count mismatch at end "
                        "marker (dropped tail?)");
    return;
  }

  // --- v1 fallback: one-pass offset scan over the record frames ---------
  bool done = false;
  while (!done) {
    const std::size_t ordinal = entries_.size();
    const std::uint64_t frame_at = src.consumed();
    std::uint64_t body = 0;
    try {
      const std::uint32_t marker = get_u32(src);
      if (marker == d::kEndMarker) {
        const std::uint64_t declared = get_u64(src);
        if (declared != entries_.size())
          throw FormatError("corrupt dataset file: record count mismatch at "
                            "end marker (dropped tail?)");
        if (src.consumed() != bytes_)
          throw FormatError(
              "corrupt dataset file: trailing bytes after the end marker");
        done = true;
        continue;
      }
      if (marker != d::kRecordMarker) throw FormatError("bad record marker");
      const std::uint64_t size = get_u64(src);
      if (size == 0 || size > d::kMaxSectionBytes)
        throw FormatError("implausible record size");
      body = size;
      Entry e;
      e.offset = frame_at;
      e.length = 12 + body;
      const std::uint8_t split_raw = get_u8(src);
      if (split_raw > static_cast<std::uint8_t>(Split::kValidation))
        throw FormatError("bad split tag");
      e.split = static_cast<Split>(split_raw);
      src.skip(body - 1);
      entries_.push_back(e);
    } catch (const FormatError& e) {
      if (std::string_view(e.what()).find("end marker") !=
          std::string_view::npos)
        throw;
      if (std::string_view(e.what()).find("trailing bytes") !=
          std::string_view::npos)
        throw;
      throw_record_error(ordinal, frame_at, body, e.what());
    }
  }
}

Split DatasetView::split(std::size_t i) const {
  check(i < entries_.size(), "DatasetView: record index out of range");
  return entries_[i].split;
}

std::uint64_t DatasetView::record_offset(std::size_t i) const {
  check(i < entries_.size(), "DatasetView: record index out of range");
  return entries_[i].offset;
}

std::uint64_t DatasetView::record_length(std::size_t i) const {
  check(i < entries_.size(), "DatasetView: record index out of range");
  return entries_[i].length;
}

void DatasetView::decode(std::size_t i, model::TrainingSample& sample) const {
  namespace d = detail;
  check(i < entries_.size(), "DatasetView: record index out of range");
  const Entry& e = entries_[i];
  const unsigned char* frame = data_ + e.offset;
  const std::uint64_t body = e.length - 12;
  std::uint64_t checked = 0;  // the body size, once the frame header holds
  try {
    Source src(frame, static_cast<std::size_t>(e.length));
    if (get_u32(src) != d::kRecordMarker)
      throw FormatError("bad record marker");
    if (get_u64(src) != body)
      throw FormatError("frame size field disagrees with the index");
    checked = body;
    if (version_ >= 2 &&
        d::fnv1a(frame + 12, static_cast<std::size_t>(body)) != e.checksum)
      throw FormatError(
          "record checksum mismatch (body bytes do not match the index)");
    src.push_budget(body);
    const std::uint8_t split_raw = get_u8(src);
    if (split_raw > static_cast<std::uint8_t>(Split::kValidation))
      throw FormatError("bad split tag");
    if (split_raw != static_cast<std::uint8_t>(e.split))
      throw FormatError("split tag disagrees with the index");
    sample = d::get_sample_body(src);
    src.pop_budget();
  } catch (const FormatError& err) {
    throw_record_error(i, e.offset, checked, err.what());
  }
}

StoredSampleSet load_sample_set(const DatasetView& view, int threads) {
  StoredSampleSet out;
  out.meta = view.meta();
  out.meta.apply_scalers(out.set);
  const std::size_t n = view.size();
  std::vector<model::TrainingSample> all(n);

  // Disjoint shards decode concurrently; the lowest-index failure is the
  // one rethrown — the same error single-threaded decoding would hit first.
  LoopFailures failures;
#pragma omp parallel for schedule(static) num_threads(team_size(threads))
  for (std::size_t i = 0; i < n; ++i)
    failures.run(i, [&] { view.decode(i, all[i]); });
  failures.rethrow();

  // Assembly stays in record order whatever the thread count, so the result
  // is bit-for-bit the sequential read.
  for (std::size_t i = 0; i < n; ++i) {
    if (view.split(i) == Split::kTrain)
      out.set.train.push_back(std::move(all[i]));
    else
      out.set.validation.push_back(std::move(all[i]));
  }
  return out;
}

DatasetSampleStore::DatasetSampleStore(const DatasetView& view) : view_(view) {
  for (std::size_t i = 0; i < view.size(); ++i)
    if (view.split(i) == Split::kTrain) train_records_.push_back(i);
}

const model::TrainingSample& DatasetSampleStore::get(
    std::size_t i, model::TrainingSample& scratch) const {
  check(i < train_records_.size(), "SampleStore index out of range");
  view_.decode(train_records_[i], scratch);
  return scratch;
}

void reindex_dataset(const std::string& in_path, const std::string& out_path) {
  namespace d = detail;
  const DatasetView view(in_path);
  // Written beside the output and renamed over it (as the corpus cache
  // does): opening out_path itself would truncate the file the view maps
  // when the two paths name the same file.
  const std::string tmp = out_path + ".tmp." + std::to_string(::getpid());
  try {
    std::ofstream os(tmp, std::ios::binary);
    if (!os) throw FormatError("cannot open for writing: " + tmp);
    StreamSink sink{os};

    // Header + section table + meta copied verbatim, only the u16 version
    // field (offset 8) patched to v2 — the prologue length is unchanged, so
    // every record keeps its original offset.
    sink.bytes(view.data_, 8);
    put_u16(sink, kDatasetFormatVersion);
    sink.bytes(view.data_ + 10,
               static_cast<std::size_t>(view.records_start_) - 10);

    std::vector<d::IndexEntry> index;
    index.reserve(view.size());
    std::uint64_t offset = view.records_start_;
    for (std::size_t i = 0; i < view.size(); ++i) {
      const std::uint64_t length = view.record_length(i);
      const unsigned char* frame = view.data_ + view.record_offset(i);
      sink.bytes(frame, static_cast<std::size_t>(length));
      index.push_back(d::IndexEntry{
          offset, length,
          d::fnv1a(frame + 12, static_cast<std::size_t>(length - 12)),
          view.split(i)});
      offset += length;
    }

    put_u32(sink, d::kEndMarker);
    put_u64(sink, index.size());
    offset += 12;
    d::put_dataset_index(sink, index);
    d::put_index_footer(sink, offset, d::index_section_bytes(index.size()));
    os.close();
    if (!os) throw FormatError("I/O error while writing: " + out_path);
    std::error_code ec;
    std::filesystem::rename(tmp, out_path, ec);
    if (ec)
      throw FormatError("cannot replace " + out_path + ": " + ec.message());
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
}

}  // namespace pg::io
