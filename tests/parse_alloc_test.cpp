// Heap traffic of one parse: parse_source writes its tokens, nodes, child
// spans and source copy into a few flat buffers, so the number of heap
// allocations per call stays small and independent of the node count.
// This suite replaces the global operator new to count them, which is why
// it is its own executable. Under the sanitizer build the count is skipped
// (the sanitizer's allocator is not what ships); the lifetime check runs
// everywhere and is the one ASan sharpens.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "dataset/kernel_spec.hpp"
#include "dataset/variants.hpp"
#include "frontend/ast_dump.hpp"
#include "frontend/parser.hpp"

namespace {

std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pg {
namespace {

/// Every suite kernel in every applicable CPU and GPU variant, at its first
/// sweep size.
std::vector<std::string> suite_sources() {
  std::vector<std::string> sources;
  for (const dataset::KernelSpec& spec : dataset::benchmark_suite())
    for (const bool gpu : {false, true})
      for (const dataset::Variant variant : dataset::applicable_variants(spec, gpu))
        sources.push_back(dataset::instantiate_source(spec, variant,
                                                      spec.default_sizes.front(), 64, 64));
  return sources;
}

TEST(ParseAlloc, FewHeapAllocationsPerParse) {
#ifdef PG_SANITIZE_BUILD
  GTEST_SKIP() << "allocation counts are not meaningful under the sanitizer allocator";
#endif
  constexpr long kMaxAllocationsPerParse = 24;
  const std::vector<std::string> sources = suite_sources();
  ASSERT_EQ(sources.size(), 69u);
  for (const std::string& source : sources) {
    const long before = g_allocations.load();
    const frontend::ParseResult result = frontend::parse_source(source);
    const long allocations = g_allocations.load() - before;
    ASSERT_TRUE(result.ok()) << result.diagnostics.summary();
    EXPECT_LE(allocations, kMaxAllocationsPerParse)
        << "source of " << source.size() << " bytes, "
        << frontend::subtree_size(result.root()) << " nodes";
  }
}

TEST(ParseAlloc, NodeTextOutlivesTheSourceString) {
  // pgbench and the advisor free the instantiated source before they
  // profile the kernel: every view in the tree must point into the parse.
  for (const std::string& kept : suite_sources()) {
    auto source = std::make_unique<std::string>(kept);
    const frontend::ParseResult parsed = frontend::parse_source(*source);
    source->assign(source->size(), '\0');
    source.reset();
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(frontend::dump_ast(parsed.root()),
              frontend::dump_ast(frontend::parse_source(kept).root()));
  }
}

}  // namespace
}  // namespace pg
