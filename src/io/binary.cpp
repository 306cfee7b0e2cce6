// Source's out-of-line half (budgets and the failing-read path) plus the
// validated string/count readers.
#include "io/binary.hpp"

#include <algorithm>

namespace pg::io {

void Source::fail(std::uint64_t n) const {
  if (budget_active_ && n > budget_end_ - consumed_)
    throw FormatError("section overrun: payload larger than its declared size");
  throw FormatError("truncated file: unexpected end of data");
}

void Source::push_budget(std::uint64_t n) {
  if (budget_active_) throw FormatError("internal: nested section budgets");
  budget_end_ = consumed_ + n;
  budget_active_ = true;
  limit_ = std::min<std::uint64_t>(budget_end_, size_);
}

void Source::pop_budget() {
  if (!budget_active_) throw FormatError("internal: no active section budget");
  if (consumed_ != budget_end_)
    throw FormatError("section underrun: payload smaller than its declared size");
  budget_active_ = false;
  limit_ = size_;
}

std::string get_string(Source& src) {
  const std::uint32_t len = get_u32(src);
  // Checking against the section budget (not just the global cap) keeps a
  // corrupt length from allocating anything before the read would fail.
  if (len > kMaxReasonableCount || len > src.remaining_budget())
    throw FormatError("corrupt string length");
  const unsigned char* at = src.take(len);
  return std::string(reinterpret_cast<const char*>(at), len);
}

std::uint64_t get_count(Source& src, const char* what) {
  const std::uint64_t v = get_u64(src);
  if (v > kMaxReasonableCount)
    throw FormatError(std::string("corrupt count field: ") + what);
  return v;
}

std::uint64_t get_count(Source& src, const char* what,
                        std::uint64_t min_bytes_per_element) {
  const std::uint64_t count = get_count(src, what);
  // count * min_bytes_per_element > remaining, without overflow.
  if (min_bytes_per_element > 0 &&
      count > src.remaining_budget() / min_bytes_per_element)
    throw FormatError(std::string("corrupt count field: ") + what +
                      " larger than its section");
  return count;
}

}  // namespace pg::io
