// Low-level primitives for the pg::io binary formats.
//
// Every multi-byte value is written in explicit little-endian byte order
// (assembled by shifts, never memcpy'd from host memory), so files written
// on any host read back identically on any other. The one bulk read,
// load_le32s, memcpys only where the host order already is little-endian.
// Floats travel as their IEEE-754 bit patterns via the same integer paths —
// round trips are bit-exact, including NaN payloads.
//
// Writers are templates over a Sink so the same serialisation code both
// *measures* (CountingSink) and *emits* (StreamSink, AppendSink) a payload;
// the section-table sizes in the container header therefore come from the
// very code that writes the bytes and cannot drift from it.
//
// Readers operate on a Source over bytes in memory that throws FormatError
// on truncation and enforces per-section byte budgets, so a corrupt section
// table cannot make a reader run off into a neighbouring section or the
// rest of the file.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace pg::io {

/// A malformed/corrupt/incompatible *input file*. Deliberately distinct
/// from pg::InternalError: bad bytes on disk are an environmental condition
/// callers may want to catch and report, not a library bug.
class FormatError : public std::runtime_error {
 public:
  explicit FormatError(const std::string& what) : std::runtime_error(what) {}
};

/// Upper bound on any single length/count field. Far above every legitimate
/// graph in this project, low enough that a corrupt count fails cleanly
/// instead of attempting a multi-gigabyte allocation.
inline constexpr std::uint64_t kMaxReasonableCount = 1ull << 28;

// --- little-endian primitives ---------------------------------------------

inline void store_le16(unsigned char* p, std::uint16_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
}

inline void store_le32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

inline void store_le64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

inline std::uint16_t load_le16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// --- sinks ----------------------------------------------------------------

struct StreamSink {
  std::ostream& os;
  void bytes(const void* data, std::size_t n) {
    os.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  }
};

struct CountingSink {
  std::uint64_t count = 0;
  void bytes(const void*, std::size_t n) { count += n; }
};

/// Sink appending to a caller-owned contiguous byte buffer
/// (std::vector<std::uint8_t> or std::string). resize+memcpy instead of
/// insert(end, p, p+n): range-insert of tiny constant spans trips a GCC 12
/// -Wstringop-overflow false positive under -O2.
template <class Buffer>
struct AppendSink {
  Buffer& out;
  void bytes(const void* data, std::size_t n) {
    const std::size_t old_size = out.size();
    out.resize(old_size + n);
    std::memcpy(out.data() + old_size, data, n);
  }
};
template <class Buffer>
AppendSink(Buffer&) -> AppendSink<Buffer>;

template <class Sink>
void put_u8(Sink& sink, std::uint8_t v) {
  sink.bytes(&v, 1);
}

template <class Sink>
void put_u16(Sink& sink, std::uint16_t v) {
  unsigned char b[2];
  store_le16(b, v);
  sink.bytes(b, sizeof b);
}

template <class Sink>
void put_u32(Sink& sink, std::uint32_t v) {
  unsigned char b[4];
  store_le32(b, v);
  sink.bytes(b, sizeof b);
}

template <class Sink>
void put_u64(Sink& sink, std::uint64_t v) {
  unsigned char b[8];
  store_le64(b, v);
  sink.bytes(b, sizeof b);
}

template <class Sink>
void put_i32(Sink& sink, std::int32_t v) {
  put_u32(sink, static_cast<std::uint32_t>(v));
}

template <class Sink>
void put_i64(Sink& sink, std::int64_t v) {
  put_u64(sink, static_cast<std::uint64_t>(v));
}

template <class Sink>
void put_f32(Sink& sink, float v) {
  put_u32(sink, std::bit_cast<std::uint32_t>(v));
}

template <class Sink>
void put_f64(Sink& sink, double v) {
  put_u64(sink, std::bit_cast<std::uint64_t>(v));
}

template <class Sink>
void put_string(Sink& sink, const std::string& s) {
  put_u32(sink, static_cast<std::uint32_t>(s.size()));
  sink.bytes(s.data(), s.size());
}

// --- source ---------------------------------------------------------------

/// Byte reader over an in-memory range with truncation detection and an
/// optional byte budget (the current section's declared size). Every read is
/// accounted; a section that declares fewer bytes than its payload needs
/// fails with "section overrun" instead of silently consuming its
/// neighbour's bytes.
///
/// Every reader decodes from memory: the mmap-backed DatasetView, serve
/// frames, and the istream entry points, which first buffer exactly the
/// container's bytes (pgraph_io.cpp). The read path is inline: one compare
/// against a precomputed limit, then a pointer bump. Only a failing read
/// goes out of line, to pick the error text.
class Source {
 public:
  /// Reader over [data, data + size). The range must outlive the Source;
  /// nothing is copied up front.
  Source(const void* data, std::size_t size)
      : data_(static_cast<const unsigned char*>(data)),
        size_(size),
        limit_(size) {}

  /// Consumes the next `n` bytes and returns where they start (valid as
  /// long as the range is). Checks the budget and the end of data first, so
  /// a caller can verify a count against real bytes before allocating.
  const unsigned char* take(std::size_t n) {
    if (n > limit_ - consumed_) [[unlikely]]
      fail(n);
    const unsigned char* at = data_ + consumed_;
    consumed_ += n;
    return at;
  }

  /// Discards exactly `n` bytes (unknown forward-compatible sections).
  void skip(std::uint64_t n) {
    if (n > limit_ - consumed_) [[unlikely]]
      fail(n);
    consumed_ += n;
  }

  /// Total bytes consumed so far.
  [[nodiscard]] std::uint64_t consumed() const { return consumed_; }

  /// Restricts subsequent reads to the next `n` bytes. Only one budget can
  /// be active at a time (sections do not nest in this format).
  void push_budget(std::uint64_t n);

  /// Ends the current section: the payload must have consumed its declared
  /// size exactly.
  void pop_budget();

  /// Bytes left in the active budget (max u64 when none is active). Lets
  /// readers reject a corrupt count *before* sizing a container for it.
  [[nodiscard]] std::uint64_t remaining_budget() const {
    return budget_active_ ? budget_end_ - consumed_ : ~0ull;
  }

 private:
  /// Throws the FormatError for a read of `n` bytes that does not fit:
  /// "section overrun" when it crosses the budget, else "truncated file".
  [[noreturn]] void fail(std::uint64_t n) const;

  const unsigned char* data_;
  std::size_t size_;
  std::uint64_t limit_;  // consumed_ bound: min(size_, budget_end_)
  std::uint64_t consumed_ = 0;
  std::uint64_t budget_end_ = 0;  // consumed_ limit of the active budget
  bool budget_active_ = false;
};

inline std::uint8_t get_u8(Source& src) { return *src.take(1); }

inline std::uint16_t get_u16(Source& src) { return load_le16(src.take(2)); }

inline std::uint32_t get_u32(Source& src) { return load_le32(src.take(4)); }

inline std::uint64_t get_u64(Source& src) { return load_le64(src.take(8)); }

inline std::int32_t get_i32(Source& src) {
  return static_cast<std::int32_t>(get_u32(src));
}

inline std::int64_t get_i64(Source& src) {
  return static_cast<std::int64_t>(get_u64(src));
}

inline float get_f32(Source& src) { return std::bit_cast<float>(get_u32(src)); }

inline double get_f64(Source& src) {
  return std::bit_cast<double>(get_u64(src));
}

/// Decodes `count` consecutive little-endian 32-bit words (u32 values or
/// f32 bit patterns) from `in` into `out`: one memcpy on a little-endian
/// host, a per-word assembly elsewhere. Pair it with Source::take, which
/// checks the whole run's bytes once.
template <class T>
void load_le32s(const unsigned char* in, T* out, std::size_t count) {
  static_assert(sizeof(T) == 4 && std::is_trivially_copyable_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    if (count != 0) std::memcpy(out, in, count * 4);
  } else {
    for (std::size_t i = 0; i < count; ++i)
      out[i] = std::bit_cast<T>(load_le32(in + 4 * i));
  }
}

std::string get_string(Source& src);

/// `get_u64` + sanity cap: throws FormatError when the value exceeds
/// kMaxReasonableCount (corrupt count fields fail before they allocate).
std::uint64_t get_count(Source& src, const char* what);

/// `get_count` + budget fit: additionally rejects counts whose elements
/// (at `min_bytes_per_element` each, the smallest legal encoding) cannot
/// fit in the remaining section budget — so a corrupt count can never
/// drive a container allocation bigger than the section it came from.
std::uint64_t get_count(Source& src, const char* what,
                        std::uint64_t min_bytes_per_element);

}  // namespace pg::io
