// SIMD dispatch front-end + the scalar reference kernel table.
//
// The scalar table is compiled here (kernels_impl.inl with 1-wide lanes);
// kernels_sse2.cpp / kernels_avx2.cpp compile the same bodies with 128/256
// bit lanes. The active level is resolved exactly once: compile-time ISA
// availability + runtime cpuid, overridden by PARAGRAPH_SIMD (unknown names
// fall back to the probe, known-but-unsupported levels clamp down — the
// probe never fails, it degrades, and says so on stderr).
#define PG_SIMD_IMPL_NS scalar_impl
#define PG_SIMD_IMPL_TABLE table_scalar
#include "tensor/kernels_impl.inl"

#include <cstdio>
#include <string>

#include "support/env.hpp"
#include "tensor/kernels_detail.hpp"
#include "tensor/simd.hpp"

namespace pg::tensor::simd {
namespace {

int rank(SimdLevel level) { return static_cast<int>(level); }

}  // namespace

SimdLevel max_supported_level() {
  static const SimdLevel best = [] {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
    if (detail::avx2_compiled() && __builtin_cpu_supports("avx2"))
      return SimdLevel::kAvx2;
#endif
    // The 128-bit level is baseline ISA wherever its TU compiled (SSE2 is
    // part of x86-64, NEON of aarch64) — no runtime probe needed.
    if (detail::vec128_compiled()) return SimdLevel::kSse2;
    return SimdLevel::kScalar;
  }();
  return best;
}

bool level_supported(SimdLevel level) {
  return rank(level) <= rank(max_supported_level());
}

std::optional<SimdLevel> level_from_name(std::string_view name) {
  if (name == "scalar") return SimdLevel::kScalar;
  if (name == "sse2" || name == "neon") return SimdLevel::kSse2;
  if (name == "avx2") return SimdLevel::kAvx2;
  return std::nullopt;
}

const char* level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kSse2: return detail::vec128_isa_name();
    case SimdLevel::kAvx2: return "avx2";
  }
  return "scalar";
}

SimdLevel resolve_level(std::string_view name, SimdLevel fallback) {
  const auto parsed = level_from_name(name);
  if (!parsed) return fallback;  // unknown/empty -> clean fallback
  return level_supported(*parsed) ? *parsed : max_supported_level();
}

std::string override_warning(std::string_view name) {
  if (name.empty()) return {};
  const auto parsed = level_from_name(name);
  if (parsed && level_supported(*parsed)) return {};
  std::string msg = "paragraph: PARAGRAPH_SIMD=";
  msg += name;
  msg += parsed ? " is not supported on this CPU" : " is not a known level";
  msg += "; using ";
  msg += level_name(resolve_level(name, max_supported_level()));
  return msg;
}

namespace {

// Set by set_active_level. When an explicit level comes before the first
// active_level() call, PARAGRAPH_SIMD decides nothing, so a mistyped value
// is not reported (the warning would name a level that is never used).
bool level_set_explicitly = false;

SimdLevel& active_storage() {
  static SimdLevel level = [] {
    const std::string name = env_string("PARAGRAPH_SIMD", "");
    if (const std::string warning = override_warning(name);
        !warning.empty() && !level_set_explicitly)
      std::fprintf(stderr, "%s\n", warning.c_str());
    return resolve_level(name, max_supported_level());
  }();
  return level;
}

}  // namespace

SimdLevel active_level() { return active_storage(); }

void set_active_level(SimdLevel level) {
  level_set_explicitly = true;
  active_storage() =
      level_supported(level) ? level : max_supported_level();
}

const KernelTable& kernels_for(SimdLevel level) {
  if (!level_supported(level)) level = max_supported_level();
  switch (level) {
    case SimdLevel::kAvx2: return detail::table_avx2();
    case SimdLevel::kSse2: return detail::table_vec128();
    case SimdLevel::kScalar: break;
  }
  return detail::table_scalar();
}

const KernelTable& kernels() { return kernels_for(active_level()); }

}  // namespace pg::tensor::simd
