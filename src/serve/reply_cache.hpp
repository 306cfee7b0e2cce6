// Serve-time reply cache (docs/SERVING.md).
//
// One cache per Server, shared by every io thread and worker: an LRU from a
// predict request's payload bytes to its scaled prediction. The reader
// probes it before decoding; a hit answers at once with the stored value, a
// miss runs the full forward pass and the worker inserts the result.
//
// The whole pipeline (decode -> embed -> head) is a deterministic function
// of the payload bytes, so a hit's value is bit-for-bit what recomputation
// would produce: replies stay byte-identical to the uncached server
// (serve_test pins this). Near-duplicate requests with different bytes are
// always misses.
//
// Capacity is enforced by least-recently-*used* eviction in O(1): lookups
// and re-inserts move an entry to the front of the recency list, and an
// insert at capacity drops the back. The payload bytes live once, in the
// list node; the index maps a view of them to the node. All counters are
// monotonic and surfaced via ServerStats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace pg::serve {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

class ReplyCache {
 public:
  /// `capacity` is the entry count before LRU eviction; 0 caches nothing.
  explicit ReplyCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the cached scaled prediction for byte-identical request bytes,
  /// refreshing recency; nullopt otherwise. Counts exactly one hit or one
  /// miss per call.
  std::optional<double> lookup(std::string_view bytes);

  /// Stores bytes -> scaled as the most recently used entry, evicting the
  /// least recently used one at capacity. Re-inserting present bytes (two
  /// identical requests that both missed while in flight) keeps one entry
  /// and overwrites its value.
  void insert(std::string bytes, double scaled);

  [[nodiscard]] CacheStats stats() const;

 private:
  struct Entry {
    std::string bytes;
    double scaled = 0.0;
  };
  using Recency = std::list<Entry>;  // front = most recently used

  std::size_t capacity_;
  mutable std::mutex mutex_;
  Recency recency_;
  // Keys view Entry::bytes inside the list nodes, which never move.
  std::unordered_map<std::string_view, Recency::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace pg::serve
