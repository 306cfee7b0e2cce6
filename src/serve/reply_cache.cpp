#include "serve/reply_cache.hpp"

#include <utility>

namespace pg::serve {

std::optional<double> ReplyCache::lookup(std::string_view bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(bytes);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  recency_.splice(recency_.begin(), recency_, it->second);
  return it->second->scaled;
}

void ReplyCache::insert(std::string bytes, double scaled) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ == 0) return;
  if (const auto it = index_.find(bytes); it != index_.end()) {
    it->second->scaled = scaled;
    recency_.splice(recency_.begin(), recency_, it->second);
    return;
  }
  if (recency_.size() >= capacity_) {
    index_.erase(recency_.back().bytes);
    recency_.pop_back();
    ++evictions_;
  }
  recency_.push_front(Entry{std::move(bytes), scaled});
  index_.emplace(recency_.front().bytes, recency_.begin());
}

CacheStats ReplyCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return CacheStats{hits_, misses_, evictions_};
}

}  // namespace pg::serve
