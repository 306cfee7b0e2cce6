// Minimal type representation — just enough to size data transfers and
// drive the simulator's operation classification.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "support/check.hpp"

namespace pg::frontend {

enum class BaseType : std::uint8_t {
  kVoid, kChar, kInt, kUInt, kLong, kULong, kFloat, kDouble,
};

/// Array dimensions, outermost first, stored inline so that a QualType
/// copies without touching the heap. At most kMaxRank dimensions; the
/// parser reports a deeper declarator as an error.
class ArrayExtents {
 public:
  static constexpr std::size_t kMaxRank = 8;

  [[nodiscard]] std::size_t size() const { return rank_; }
  [[nodiscard]] bool empty() const { return rank_ == 0; }
  [[nodiscard]] std::int64_t operator[](std::size_t i) const { return extents_[i]; }
  [[nodiscard]] const std::int64_t* begin() const { return extents_.data(); }
  [[nodiscard]] const std::int64_t* end() const { return extents_.data() + rank_; }

  void push_back(std::int64_t extent) {
    check(rank_ < kMaxRank, "array rank exceeds ArrayExtents::kMaxRank");
    extents_[rank_++] = extent;
  }
  /// Drops the outermost dimension (the type of `a[i]` given that of `a`).
  void pop_front() {
    check(rank_ > 0, "pop_front on a scalar type");
    std::copy(extents_.begin() + 1, extents_.begin() + rank_, extents_.begin());
    extents_[--rank_] = 0;
  }

  // Unused slots stay zero, so the defaulted comparison is exact.
  friend bool operator==(const ArrayExtents&, const ArrayExtents&) = default;

 private:
  std::array<std::int64_t, kMaxRank> extents_{};
  std::uint8_t rank_ = 0;
};

/// A (possibly pointer / array) qualified type. Array extents are stored
/// after constant folding; kUnknownExtent marks runtime-sized dimensions.
struct QualType {
  static constexpr std::int64_t kUnknownExtent = -1;

  BaseType base = BaseType::kInt;
  int pointer_depth = 0;
  ArrayExtents array_extents;
  bool is_const = false;

  [[nodiscard]] bool is_pointer() const { return pointer_depth > 0; }
  [[nodiscard]] bool is_array() const { return !array_extents.empty(); }
  [[nodiscard]] bool is_floating() const {
    return !is_pointer() && !is_array() &&
           (base == BaseType::kFloat || base == BaseType::kDouble);
  }
  [[nodiscard]] bool is_integer() const {
    return !is_pointer() && !is_array() &&
           (base == BaseType::kChar || base == BaseType::kInt ||
            base == BaseType::kUInt || base == BaseType::kLong ||
            base == BaseType::kULong);
  }

  /// sizeof the *element* type (ignores pointer/array wrapping).
  [[nodiscard]] std::size_t element_size() const;

  /// Total elements across all array dimensions; kUnknownExtent if any
  /// dimension is runtime-sized.
  [[nodiscard]] std::int64_t total_array_elements() const;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const QualType&, const QualType&) = default;
};

std::string_view base_type_name(BaseType base);

}  // namespace pg::frontend
