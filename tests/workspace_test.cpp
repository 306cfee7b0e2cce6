// Tests for the tensor::Workspace arena and the zero-allocation guarantee
// of the workspace-backed model hot path: slot reuse and zeroing semantics,
// grow-only statistics, bitwise determinism of repeated passes through one
// (or several) workspaces, and a global-operator-new audit proving that a
// warmed-up predict/accumulate_gradients never touches the heap.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "model/encoding.hpp"
#include "model/paragraph_model.hpp"
#include "tensor/workspace.hpp"

// ----------------------------------------------------------------------
// Global allocation audit. Replacing the global operator new/delete pair
// lets the steady-state tests assert "zero heap allocations", not merely
// "zero workspace growth". The counter only ever increments, so warm-up
// and gtest bookkeeping between snapshots are harmless.
namespace {
std::atomic<std::size_t> g_allocation_count{0};
}  // namespace

// Every throwing/nothrow new and delete variant is replaced so each
// allocation and deallocation routes through the same malloc/free pair —
// a partial replacement trips ASan's alloc-dealloc-mismatch check.
void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace pg::tensor {
namespace {

// ------------------------------------------------------------- arena ---

TEST(Workspace, AcquireReturnsZeroFilledShape) {
  Workspace ws;
  Matrix& m = ws.acquire(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (float v : m.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Workspace, SameShapeAcquiresAreDistinctUntilReset) {
  Workspace ws;
  Matrix& a = ws.acquire(2, 2);
  Matrix& b = ws.acquire(2, 2);
  EXPECT_NE(&a, &b);
  a(0, 0) = 1.0f;
  EXPECT_EQ(b(0, 0), 0.0f);
}

TEST(Workspace, ResetReusesSlotsInAcquisitionOrder) {
  Workspace ws;
  Matrix& a = ws.acquire(2, 3);
  Matrix& b = ws.acquire(2, 3);
  a(0, 0) = 7.0f;
  b(0, 0) = 9.0f;
  ws.reset();
  Matrix& a2 = ws.acquire(2, 3);
  Matrix& b2 = ws.acquire(2, 3);
  EXPECT_EQ(&a2, &a);
  EXPECT_EQ(&b2, &b);
  // Re-handed-out slots are scrubbed.
  EXPECT_EQ(a2(0, 0), 0.0f);
  EXPECT_EQ(b2(0, 0), 0.0f);
}

TEST(Workspace, GrowOnlyStatistics) {
  Workspace ws;
  EXPECT_EQ(ws.num_slots(), 0u);
  (void)ws.acquire(4, 4);
  (void)ws.acquire(4, 4);
  (void)ws.acquire(1, 8);
  EXPECT_EQ(ws.num_slots(), 3u);
  EXPECT_EQ(ws.bytes_reserved(), (16u + 16u + 8u) * sizeof(float));
  ws.reset();
  (void)ws.acquire(4, 4);
  (void)ws.acquire(1, 8);
  EXPECT_EQ(ws.num_slots(), 3u);  // steady state: nothing new
  EXPECT_EQ(ws.num_acquires(), 5u);
}

TEST(Workspace, SlotsArePositionalAndReshapedInPlace) {
  // The i-th acquire after a reset gets slot i whatever its shape, so a
  // stream of new shapes reuses storage instead of adding buffers.
  Workspace ws;
  Matrix& a = ws.acquire(8, 8);
  Matrix& b = ws.acquire(2, 3);
  EXPECT_EQ(ws.bytes_reserved(), (64u + 6u) * sizeof(float));
  ws.reset();
  Matrix& a2 = ws.acquire(4, 5);   // smaller: fits slot 0's capacity
  Matrix& b2 = ws.acquire(3, 2);   // same size, new shape
  EXPECT_EQ(&a2, &a);
  EXPECT_EQ(&b2, &b);
  EXPECT_EQ(a2.rows(), 4u);
  EXPECT_EQ(a2.cols(), 5u);
  EXPECT_EQ(ws.num_slots(), 2u);
  EXPECT_EQ(ws.bytes_reserved(), (64u + 6u) * sizeof(float));
  ws.reset();
  (void)ws.acquire(1, 1);
  (void)ws.acquire(4, 4);  // slot 1 grows past its high-water mark
  EXPECT_EQ(ws.num_slots(), 2u);
  EXPECT_EQ(ws.bytes_reserved(), (64u + 16u) * sizeof(float));
}

TEST(Workspace, AcquireUninitKeepsContentsWhenGrowingWithinCapacity) {
  Workspace ws;
  Matrix& m = ws.acquire(4, 4);
  for (float& v : m.data()) v = 3.0f;
  ws.reset();
  (void)ws.acquire_uninit(1, 2);  // shrink...
  ws.reset();
  Matrix& regrown = ws.acquire_uninit(4, 4);  // ...and grow back: no fill
  ASSERT_EQ(&regrown, &m);
  for (float v : regrown.data()) EXPECT_EQ(v, 3.0f);
  ws.reset();
  Matrix& zeroed = ws.acquire(4, 4);  // acquire() still scrubs
  for (float v : zeroed.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Workspace, ZeroSizedAcquireIsAllowed) {
  Workspace ws;
  Matrix& m = ws.acquire(1, 0);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

// ----------------------------------------------------- model hot path ---

model::EncodedGraph encoded_small() {
  auto r = frontend::parse_source(R"(
    void f(void) {
      for (int i = 0; i < 40; i++) {
        double x = 1.0;
      }
    }
  )");
  EXPECT_TRUE(r.ok());
  const auto g = graph::build_graph(r.root(), {});
  return model::encode_graph(g, 40.0);
}

TEST(WorkspaceModel, RepeatedPredictThroughOneWorkspaceIsBitwiseIdentical) {
  const auto enc = encoded_small();
  model::ParaGraphModel m(model::ModelConfig{.hidden_dim = 8, .seed = 3});
  const std::array<float, 2> aux = {0.4f, 0.6f};
  Workspace ws;
  const double first = m.predict(enc, aux, ws);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(m.predict(enc, aux, ws), first);
}

TEST(WorkspaceModel, PredictIsIndependentOfWorkspaceHistory) {
  const auto enc = encoded_small();
  model::ParaGraphModel m(model::ModelConfig{.hidden_dim = 8, .seed = 3});
  const std::array<float, 2> aux = {0.4f, 0.6f};
  Workspace fresh;
  Workspace dirty;
  // Pollute `dirty` with a differently-shaped pass first.
  (void)m.predict(enc, std::array<float, 2>{0.9f, 0.1f}, dirty);
  EXPECT_EQ(m.predict(enc, aux, dirty), m.predict(enc, aux, fresh));
}

TEST(WorkspaceModel, PredictSteadyStatePerformsZeroHeapAllocations) {
  const auto enc = encoded_small();
  model::ParaGraphModel m(model::ModelConfig{.hidden_dim = 8, .seed = 5});
  const std::array<float, 2> aux = {0.3f, 0.7f};
  Workspace ws;
  (void)m.predict(enc, aux, ws);  // warm-up: arena takes all its slots here
  const std::size_t slots = ws.num_slots();
  const std::size_t bytes = ws.bytes_reserved();

  const std::size_t allocations_before = g_allocation_count.load();
  double sum = 0.0;
  for (int i = 0; i < 10; ++i) sum += m.predict(enc, aux, ws);
  const std::size_t allocations_after = g_allocation_count.load();

  EXPECT_NE(sum, 0.0);  // keep the loop observable
  EXPECT_EQ(allocations_after, allocations_before)
      << "steady-state predict touched the heap";
  EXPECT_EQ(ws.num_slots(), slots) << "workspace grew after warm-up";
  EXPECT_EQ(ws.bytes_reserved(), bytes);
}

TEST(WorkspaceModel, GradientSteadyStatePerformsZeroHeapAllocations) {
  const auto enc = encoded_small();
  model::ParaGraphModel m(model::ModelConfig{.hidden_dim = 8, .seed = 5});
  const std::array<float, 2> aux = {0.3f, 0.7f};
  std::vector<Matrix> grads;
  for (auto* p : m.parameters()) grads.emplace_back(p->rows(), p->cols());
  Workspace ws;
  (void)m.accumulate_gradients(enc, aux, 0.5, 1.0, grads, ws);  // warm-up
  const std::size_t slots = ws.num_slots();

  const std::size_t allocations_before = g_allocation_count.load();
  for (int i = 0; i < 5; ++i)
    (void)m.accumulate_gradients(enc, aux, 0.5, 1.0, grads, ws);
  const std::size_t allocations_after = g_allocation_count.load();

  EXPECT_EQ(allocations_after, allocations_before)
      << "steady-state accumulate_gradients touched the heap";
  EXPECT_EQ(ws.num_slots(), slots);
}

TEST(WorkspaceModel, WorkspaceOverloadMatchesConvenienceOverload) {
  const auto enc = encoded_small();
  model::ParaGraphModel m(model::ModelConfig{.hidden_dim = 8, .seed = 7});
  const std::array<float, 2> aux = {0.2f, 0.8f};
  Workspace ws;
  EXPECT_EQ(m.predict(enc, aux, ws), m.predict(enc, aux));
}

}  // namespace
}  // namespace pg::tensor
