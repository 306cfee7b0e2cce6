// Storage alignment contract shared by Matrix/Workspace and the SIMD kernel
// layer — split from simd.hpp so the storage types don't drag the whole
// kernel-dispatch API into every translation unit that touches a Matrix.
//
// Matrix (and therefore every Workspace slot) allocates its float storage on
// kAlignBytes boundaries with capacity rounded up to padded_floats(), so a
// vector kernel's full-width loads on row starts are aligned whenever the
// row width is a lane multiple (the templated 8/16/24/32 widths always
// are). Kernels still use unaligned load instructions — correct for any
// stride, same cost on aligned data — so padding is a performance contract,
// not a correctness one.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace pg::tensor::simd {

inline constexpr std::size_t kAlignBytes = 32;  // one AVX2 vector

/// Rounds a float count up to a whole number of widest (8-lane) vectors.
[[nodiscard]] constexpr std::size_t padded_floats(std::size_t n) {
  return (n + 7u) & ~static_cast<std::size_t>(7u);
}

/// Minimal aligned allocator for the Matrix backing store (32-byte base).
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}  // NOLINT(implicit)

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlignBytes}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kAlignBytes});
  }

  /// Value-less construction default-initialises: a resize() that grows
  /// back within capacity leaves floats as they were instead of zeroing
  /// them (Matrix::reshape contents are unspecified; Workspace's
  /// acquire_uninit relies on skipping the fill).
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T, typename U>
bool operator==(const AlignedAllocator<T>&, const AlignedAllocator<U>&) {
  return true;
}

}  // namespace pg::tensor::simd
