// Tests for the NN layers: shapes, forward semantics, Adam behaviour,
// scaler round-trips, and small end-to-end optimisation problems.
// (Gradient correctness is covered separately in gradcheck_test.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "nn/activation.hpp"
#include "nn/adam.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/relational_graph.hpp"
#include "nn/rgat.hpp"
#include "nn/scaler.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/init.hpp"
#include "tensor/workspace.hpp"

namespace pg::nn {
namespace {

// ----------------------------------------------------------- activation ---

TEST(Activation, ReluClampsNegatives) {
  tensor::Matrix x(1, 4);
  x(0, 0) = -1.0f; x(0, 1) = 0.0f; x(0, 2) = 2.0f; x(0, 3) = -0.5f;
  const tensor::Matrix y = relu(x);
  EXPECT_EQ(y(0, 0), 0.0f);
  EXPECT_EQ(y(0, 1), 0.0f);
  EXPECT_EQ(y(0, 2), 2.0f);
  EXPECT_EQ(y(0, 3), 0.0f);
}

TEST(Activation, ReluBackwardMasksByInput) {
  tensor::Matrix x(1, 3);
  x(0, 0) = -1.0f; x(0, 1) = 1.0f; x(0, 2) = 0.0f;
  tensor::Matrix dy(1, 3, 5.0f);
  const tensor::Matrix dx = relu_backward(dy, x);
  EXPECT_EQ(dx(0, 0), 0.0f);
  EXPECT_EQ(dx(0, 1), 5.0f);
  EXPECT_EQ(dx(0, 2), 0.0f);  // non-differentiable point: subgradient 0
}

TEST(Activation, LeakyRelu) {
  EXPECT_FLOAT_EQ(leaky_relu(2.0f, 0.2f), 2.0f);
  EXPECT_FLOAT_EQ(leaky_relu(-2.0f, 0.2f), -0.4f);
  EXPECT_FLOAT_EQ(leaky_relu_grad(2.0f, 0.2f), 1.0f);
  EXPECT_FLOAT_EQ(leaky_relu_grad(-2.0f, 0.2f), 0.2f);
}

// ---------------------------------------------------------------- linear ---

TEST(Linear, ForwardComputesAffineMap) {
  pg::Rng rng(1);
  Linear layer(2, 3, rng);
  tensor::Matrix x(1, 2);
  x(0, 0) = 1.0f; x(0, 1) = 2.0f;
  const tensor::Matrix y = layer.forward(x);
  ASSERT_EQ(y.rows(), 1u);
  ASSERT_EQ(y.cols(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    const float expected = layer.weight()(0, j) + 2.0f * layer.weight()(1, j) +
                           layer.bias()(0, j);
    EXPECT_NEAR(y(0, j), expected, 1e-6f);
  }
}

TEST(Linear, BatchedForward) {
  pg::Rng rng(2);
  Linear layer(4, 2, rng);
  tensor::Matrix x(8, 4, 0.5f);
  const tensor::Matrix y = layer.forward(x);
  EXPECT_EQ(y.rows(), 8u);
  // Rows of a constant input are identical.
  for (std::size_t i = 1; i < 8; ++i)
    for (std::size_t j = 0; j < 2; ++j) EXPECT_FLOAT_EQ(y(i, j), y(0, j));
}

TEST(Linear, FeatureDimMismatchThrows) {
  pg::Rng rng(3);
  Linear layer(4, 2, rng);
  tensor::Matrix x(1, 3);
  EXPECT_THROW(layer.forward(x), InternalError);
}

TEST(Linear, BackwardAccumulatesIntoGrads) {
  pg::Rng rng(4);
  Linear layer(2, 2, rng);
  tensor::Matrix x(1, 2, 1.0f);
  std::vector<tensor::Matrix> grads;
  grads.emplace_back(2, 2);
  grads.emplace_back(1, 2);
  tensor::Matrix dy(1, 2, 1.0f);
  (void)layer.backward(x, dy, grads);
  (void)layer.backward(x, dy, grads);  // accumulates, does not overwrite
  EXPECT_FLOAT_EQ(grads[0](0, 0), 2.0f);
  EXPECT_FLOAT_EQ(grads[1](0, 1), 2.0f);
}

// ------------------------------------------------------------------ mlp ---

TEST(Mlp, RequiresAtLeastTwoSizes) {
  pg::Rng rng(5);
  EXPECT_THROW(Mlp({4}, rng), InternalError);
}

TEST(Mlp, OutputShapeAndDeterminism) {
  pg::Rng rng(6);
  Mlp mlp({3, 8, 1}, rng);
  tensor::Matrix x(5, 3, 0.1f);
  const tensor::Matrix y1 = mlp.forward(x);
  const tensor::Matrix y2 = mlp.forward(x);
  ASSERT_EQ(y1.rows(), 5u);
  ASSERT_EQ(y1.cols(), 1u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(y1(i, 0), y2(i, 0));
}

TEST(Mlp, ParameterCountMatchesLayers) {
  pg::Rng rng(7);
  Mlp mlp({3, 8, 4, 1}, rng);
  EXPECT_EQ(mlp.num_layers(), 3u);
  EXPECT_EQ(mlp.parameters().size(), 6u);
}

TEST(Mlp, LearnsLinearFunction) {
  // y = 2 x0 - x1 should be learnable to near-zero loss.
  pg::Rng rng(8);
  Mlp mlp({2, 16, 1}, rng);
  Adam adam(mlp.parameters(), {.learning_rate = 0.01});
  auto grads = adam.make_gradient_buffer();
  pg::Rng data_rng(9);

  double final_loss = 1e9;
  for (int step = 0; step < 500; ++step) {
    tensor::Matrix x(16, 2);
    std::vector<double> targets(16);
    for (int i = 0; i < 16; ++i) {
      x(i, 0) = static_cast<float>(data_rng.uniform(-1, 1));
      x(i, 1) = static_cast<float>(data_rng.uniform(-1, 1));
      targets[i] = 2.0 * x(i, 0) - x(i, 1);
    }
    Mlp::Cache cache;
    tensor::Matrix pred = mlp.forward(x, cache);
    tensor::Matrix dpred(16, 1);
    double loss = 0.0;
    for (int i = 0; i < 16; ++i) {
      loss += mse_loss(pred(i, 0), targets[i]);
      dpred(i, 0) = static_cast<float>(mse_grad(pred(i, 0), targets[i]) / 16.0);
    }
    final_loss = loss / 16.0;
    (void)mlp.backward(dpred, cache, grads);
    adam.step(grads);
    for (auto& g : grads) g.zero();
  }
  EXPECT_LT(final_loss, 1e-3);
}

// ----------------------------------------------------------------- adam ---

TEST(Adam, MinimisesQuadratic) {
  // min (w - 3)^2 from w = 0.
  tensor::Matrix w(1, 1, 0.0f);
  Adam adam({&w}, {.learning_rate = 0.1});
  auto grads = adam.make_gradient_buffer();
  for (int i = 0; i < 200; ++i) {
    grads[0](0, 0) = 2.0f * (w(0, 0) - 3.0f);
    adam.step(grads);
    grads[0].zero();
  }
  EXPECT_NEAR(w(0, 0), 3.0f, 1e-2f);
}

TEST(Adam, StepCountIncrements) {
  tensor::Matrix w(1, 1);
  Adam adam({&w});
  auto grads = adam.make_gradient_buffer();
  adam.step(grads);
  adam.step(grads);
  EXPECT_EQ(adam.step_count(), 2u);
}

TEST(Adam, GradientShapeMismatchThrows) {
  tensor::Matrix w(2, 2);
  Adam adam({&w});
  std::vector<tensor::Matrix> bad;
  bad.emplace_back(1, 1);
  EXPECT_THROW(adam.step(bad), InternalError);
}

TEST(Adam, WeightDecayShrinksWeights) {
  tensor::Matrix w(1, 1, 10.0f);
  AdamConfig config;
  config.weight_decay = 0.1;
  Adam adam({&w}, config);
  auto grads = adam.make_gradient_buffer();
  for (int i = 0; i < 50; ++i) {
    adam.step(grads);  // zero task gradient: only decay acts
    grads[0].zero();
  }
  EXPECT_LT(w(0, 0), 10.0f);
}

// --------------------------------------------------------------- scaler ---

TEST(MinMaxScaler, TransformsToUnitInterval) {
  MinMaxScaler scaler;
  const std::vector<double> values = {10.0, 20.0, 15.0};
  scaler.fit(values);
  EXPECT_DOUBLE_EQ(scaler.transform(10.0), 0.0);
  EXPECT_DOUBLE_EQ(scaler.transform(20.0), 1.0);
  EXPECT_DOUBLE_EQ(scaler.transform(15.0), 0.5);
}

TEST(MinMaxScaler, InverseRoundTrips) {
  MinMaxScaler scaler;
  scaler.fit_bounds(-5.0, 37.0);
  for (double v : {-5.0, 0.0, 17.3, 37.0})
    EXPECT_NEAR(scaler.inverse(scaler.transform(v)), v, 1e-12);
}

TEST(MinMaxScaler, ZeroRangeMapsToZero) {
  MinMaxScaler scaler;
  scaler.fit_bounds(4.0, 4.0);
  EXPECT_DOUBLE_EQ(scaler.transform(4.0), 0.0);
}

TEST(MinMaxScaler, UseBeforeFitThrows) {
  MinMaxScaler scaler;
  EXPECT_THROW((void)scaler.transform(1.0), InternalError);
  EXPECT_THROW((void)scaler.inverse(0.5), InternalError);
}

TEST(MinMaxScaler, OutOfRangeValuesExtrapolate) {
  MinMaxScaler scaler;
  scaler.fit_bounds(0.0, 10.0);
  EXPECT_DOUBLE_EQ(scaler.transform(20.0), 2.0);
  EXPECT_DOUBLE_EQ(scaler.transform(-10.0), -1.0);
}

// ------------------------------------------------------------------ mse ---

TEST(MseLoss, ValueAndGradient) {
  EXPECT_DOUBLE_EQ(mse_loss(3.0, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(mse_grad(3.0, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(mse_grad(1.0, 3.0), -4.0);
}

// ---------------------------------------------------- relational graph ---

TEST(RelationEdges, GroupsByDestination) {
  std::vector<RelEdge> edges = {{0, 2, 1.0f}, {1, 2, 1.0f}, {0, 1, 1.0f}};
  const RelationEdges rel = RelationEdges::from_edges(edges, 3);
  ASSERT_EQ(rel.num_groups(), 2u);
  EXPECT_EQ(rel.num_edges(), 3u);
  // Groups sorted by local dst; nodes = {0,1,2}.
  ASSERT_EQ(rel.nodes.size(), 3u);
  EXPECT_EQ(rel.group_offsets.front(), 0u);
  EXPECT_EQ(rel.group_offsets.back(), 3u);
  // SoA arrays are parallel over the edge slots.
  EXPECT_EQ(rel.src_local.size(), rel.gate.size());
}

TEST(RelationEdges, LocalIndicesMapBackToGlobals) {
  std::vector<RelEdge> edges = {{10, 20, 1.0f}, {30, 20, 1.0f}};
  const RelationEdges rel = RelationEdges::from_edges(edges, 31);
  ASSERT_EQ(rel.nodes.size(), 3u);
  const std::vector<RelEdge> back = rel.to_edges();
  ASSERT_EQ(back.size(), 2u);
  // Both edges target 20; sources are 10 and 30 in input order.
  EXPECT_EQ(back[0], (RelEdge{10, 20, 1.0f}));
  EXPECT_EQ(back[1], (RelEdge{30, 20, 1.0f}));
}

TEST(RelationEdges, EmptyRelation) {
  const RelationEdges rel = RelationEdges::from_edges({}, 0);
  EXPECT_TRUE(rel.empty());
  EXPECT_EQ(rel.num_groups(), 0u);
  EXPECT_EQ(rel.num_active_nodes(), 0u);
  ASSERT_EQ(rel.group_offsets.size(), 1u);  // CSR sentinel survives empties
  EXPECT_EQ(rel.group_offsets[0], 0u);
  EXPECT_TRUE(rel.to_edges().empty());
}

TEST(RelationEdges, DuplicateParallelEdgesKeepDistinctSlots) {
  // Two identical edges plus a differently-gated parallel edge: all three
  // must survive as separate slots in the same destination group.
  std::vector<RelEdge> edges = {{0, 1, 0.25f}, {0, 1, 0.25f}, {0, 1, 0.75f}};
  const RelationEdges rel = RelationEdges::from_edges(edges, 2);
  EXPECT_EQ(rel.num_edges(), 3u);
  ASSERT_EQ(rel.num_groups(), 1u);
  EXPECT_EQ(rel.group_offsets[1] - rel.group_offsets[0], 3u);
  // Stable grouping preserves input order within the group.
  EXPECT_FLOAT_EQ(rel.gate[0], 0.25f);
  EXPECT_FLOAT_EQ(rel.gate[1], 0.25f);
  EXPECT_FLOAT_EQ(rel.gate[2], 0.75f);
  EXPECT_EQ(rel.to_edges(), edges);
}

TEST(RelationEdges, SelfLoop) {
  const RelationEdges rel = RelationEdges::from_edges({{5, 5, 0.5f}}, 6);
  EXPECT_EQ(rel.num_edges(), 1u);
  ASSERT_EQ(rel.num_active_nodes(), 1u);  // src == dst collapses to one node
  EXPECT_EQ(rel.nodes[0], 5u);
  ASSERT_EQ(rel.num_groups(), 1u);
  EXPECT_EQ(rel.src_local[0], 0u);
  EXPECT_EQ(rel.group_dst[0], 0u);
  EXPECT_EQ(rel.to_edges(), (std::vector<RelEdge>{{5, 5, 0.5f}}));
}

TEST(RelationEdges, SingleNodeGraph) {
  // A one-node graph can only carry a self-loop; the degenerate CSR still
  // holds every invariant the RGAT kernels index by.
  const RelationEdges rel = RelationEdges::from_edges({{0, 0, 1.0f}}, 1);
  ASSERT_EQ(rel.nodes.size(), 1u);
  EXPECT_EQ(rel.nodes[0], 0u);
  ASSERT_EQ(rel.group_offsets.size(), 2u);
  EXPECT_EQ(rel.group_offsets[0], 0u);
  EXPECT_EQ(rel.group_offsets[1], 1u);
}

/// Checks from_edges against its spec: expanding the CSR back to triples
/// reproduces the input triples stably sorted by destination (global dst
/// order == local dst order, since the local numbering is sorted), and the
/// CSR holds the invariants the conv kernels rely on.
void expect_matches_stable_sort(const std::vector<RelEdge>& edges,
                                std::size_t num_nodes, const std::string& what) {
  const RelationEdges rel = RelationEdges::from_edges(edges, num_nodes);

  std::vector<RelEdge> expected = edges;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const RelEdge& a, const RelEdge& b) { return a.dst < b.dst; });
  EXPECT_EQ(rel.to_edges(), expected) << what;

  std::vector<std::uint32_t> touched;
  for (const RelEdge& e : edges) {
    touched.push_back(e.src);
    touched.push_back(e.dst);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  EXPECT_EQ(rel.nodes, touched) << what;

  ASSERT_EQ(rel.group_offsets.size(), rel.num_groups() + 1) << what;
  EXPECT_EQ(rel.group_offsets.front(), 0u) << what;
  EXPECT_EQ(rel.group_offsets.back(), rel.num_edges()) << what;
  for (std::size_t g = 0; g < rel.num_groups(); ++g) {
    EXPECT_LT(rel.group_offsets[g], rel.group_offsets[g + 1]) << what;
    if (g > 0) {
      EXPECT_GT(rel.group_dst[g], rel.group_dst[g - 1]) << what;
    }
    EXPECT_LT(rel.group_dst[g], rel.nodes.size()) << what;
  }
  for (std::uint32_t s : rel.src_local) EXPECT_LT(s, rel.nodes.size()) << what;
}

std::vector<RelEdge> random_edges(pg::Rng& rng, std::int64_t lo, std::int64_t hi,
                                  std::int64_t m) {
  std::vector<RelEdge> edges;
  for (std::int64_t e = 0; e < m; ++e)
    edges.push_back({static_cast<std::uint32_t>(rng.uniform_int(lo, hi)),
                     static_cast<std::uint32_t>(rng.uniform_int(lo, hi)),
                     static_cast<float>(rng.uniform(0.0, 1.0))});
  return edges;
}

TEST(RelationEdges, CsrRoundTripsToGroupedFormOnRandomGraphs) {
  // Property over random multigraphs (duplicates and self-loops included).
  pg::Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const std::int64_t n = rng.uniform_int(1, 12);
    const std::int64_t m = rng.uniform_int(0, 30);
    const auto edges = random_edges(rng, 0, n - 1, m);
    const std::string what = "trial " + std::to_string(trial);
    // The graph's own node count, and a bound of exactly max id + 1.
    expect_matches_stable_sort(edges, static_cast<std::size_t>(n), what);
    std::uint32_t max_id = 0;
    for (const RelEdge& e : edges) max_id = std::max({max_id, e.src, e.dst});
    expect_matches_stable_sort(edges, max_id + 1, what + ", tight bound");
  }
  for (int trial = 0; trial < 20; ++trial) {
    // Large node bound, few edges scattered over it.
    const std::int64_t n = rng.uniform_int(10000, 100000);
    const auto edges = random_edges(rng, 0, n - 1, rng.uniform_int(1, 8));
    expect_matches_stable_sort(edges, static_cast<std::size_t>(n),
                               "sparse trial " + std::to_string(trial));
  }
  for (int trial = 0; trial < 20; ++trial) {
    // Every edge touches one node: a self-loop multigraph, anywhere below
    // the bound.
    const std::int64_t n = rng.uniform_int(1, 50);
    const auto v = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
    const auto edges = random_edges(rng, v, v, rng.uniform_int(1, 6));
    expect_matches_stable_sort(edges, static_cast<std::size_t>(n),
                               "one-node trial " + std::to_string(trial));
  }
}

TEST(RelationEdges, IdAtOrAboveTheNodeBoundThrows) {
  EXPECT_THROW((void)RelationEdges::from_edges({{0, 3, 1.0f}}, 3), InternalError);
  EXPECT_THROW((void)RelationEdges::from_edges({{3, 0, 1.0f}}, 3), InternalError);
  EXPECT_THROW((void)RelationEdges::from_edges({{0, 0, 1.0f}, {7, 1, 1.0f}}, 2),
               InternalError);
  EXPECT_THROW((void)RelationEdges::from_edges({{0, 0, 1.0f}}, 0), InternalError);
  EXPECT_NO_THROW((void)RelationEdges::from_edges({{0, 2, 1.0f}}, 3));
}

// ----------------------------------------------------------------- rgat ---

RelationalGraph line_graph(std::size_t n, std::size_t relations) {
  RelationalGraph g;
  g.num_nodes = n;
  std::vector<RelEdge> edges;
  for (std::size_t i = 0; i + 1 < n; ++i)
    edges.push_back({static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(i + 1), 1.0f});
  g.relations.push_back(RelationEdges::from_edges(edges, n));
  for (std::size_t r = 1; r < relations; ++r)
    g.relations.push_back(RelationEdges::from_edges({}, n));
  return g;
}

TEST(RgatConv, OutputShape) {
  pg::Rng rng(1);
  RgatConv conv(4, 6, 2, rng);
  const RelationalGraph g = line_graph(5, 2);
  tensor::Matrix x(5, 4, 0.3f);
  tensor::Workspace ws;
  RgatConv::Cache cache;
  const tensor::Matrix y = conv.forward(x, g, cache, ws);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 6u);
}

TEST(RgatConv, ReluOutputIsNonNegative) {
  pg::Rng rng(2);
  RgatConv conv(4, 4, 1, rng);
  const RelationalGraph g = line_graph(6, 1);
  tensor::Matrix x(6, 4);
  pg::Rng xr(3);
  tensor::uniform_init(x, xr, -2.0f, 2.0f);
  tensor::Workspace ws;
  RgatConv::Cache cache;
  const tensor::Matrix y = conv.forward(x, g, cache, ws);
  for (float v : y.data()) EXPECT_GE(v, 0.0f);
}

TEST(RgatConv, IsolatedNodesStillGetSelfTransform) {
  pg::Rng rng(4);
  RgatConv conv(3, 3, 1, rng, /*apply_relu=*/false);
  RelationalGraph g;
  g.num_nodes = 2;
  g.relations.push_back(RelationEdges::from_edges({}, 2));  // no edges at all
  tensor::Matrix x(2, 3, 1.0f);
  tensor::Workspace ws;
  RgatConv::Cache cache;
  const tensor::Matrix y = conv.forward(x, g, cache, ws);
  // With no edges the output is exactly x W_self + b, not zero.
  EXPECT_NE(y.squared_norm(), 0.0);
}

TEST(RgatConv, AttentionIsNormalisedPerDestination) {
  pg::Rng rng(5);
  RgatConv conv(3, 3, 1, rng);
  // Two edges into node 2.
  RelationalGraph g;
  g.num_nodes = 3;
  g.relations.push_back(
      RelationEdges::from_edges({{0, 2, 1.0f}, {1, 2, 1.0f}}, 3));
  tensor::Matrix x(3, 3, 0.5f);
  tensor::Workspace ws;
  RgatConv::Cache cache;
  (void)conv.forward(x, g, cache, ws);
  const auto alpha = cache.alpha->row_span(0);
  ASSERT_EQ(alpha.size(), 2u);
  EXPECT_NEAR(alpha[0] + alpha[1], 1.0f, 1e-5f);
}

TEST(RgatConv, GateScalesMessages) {
  pg::Rng rng(6);
  RgatConv conv(2, 2, 1, rng, /*apply_relu=*/false);
  tensor::Matrix x(2, 2, 1.0f);

  auto out_with_gate = [&](float gate) -> tensor::Matrix {
    RelationalGraph g;
    g.num_nodes = 2;
    g.relations.push_back(RelationEdges::from_edges({{0, 1, gate}}, 2));
    tensor::Workspace ws;
    RgatConv::Cache cache;
    return conv.forward(x, g, cache, ws);
  };
  const tensor::Matrix y0 = out_with_gate(0.0f);
  const tensor::Matrix y1 = out_with_gate(1.0f);
  // Node 0 (no incoming edge) identical; node 1 differs with the gate.
  EXPECT_FLOAT_EQ(y0(0, 0), y1(0, 0));
  EXPECT_NE(y0(1, 0), y1(1, 0));
}

TEST(RgatConv, RelationCountMismatchThrows) {
  pg::Rng rng(7);
  RgatConv conv(2, 2, 3, rng);
  const RelationalGraph g = line_graph(3, 2);  // only 2 relations
  tensor::Matrix x(3, 2);
  tensor::Workspace ws;
  RgatConv::Cache cache;
  EXPECT_THROW(conv.forward(x, g, cache, ws), InternalError);
}

TEST(RgatConv, SkippingInputGradientKeepsParameterGradientsBitwise) {
  // backward_params (the first layer's path: its input needs no gradient)
  // must accumulate exactly the parameter gradients backward() does, on
  // random multi-relation graphs, for the model's one-hot input width and
  // for widths with lane tails.
  pg::Rng rng(77);
  for (const auto& [in, out] : {std::pair<std::size_t, std::size_t>{48, 24},
                               {24, 24},
                               {7, 8},
                               {10, 10}}) {
    constexpr std::size_t kRelations = 3;
    RgatConv conv(in, out, kRelations, rng);
    RelationalGraph g;
    g.num_nodes = 17;
    for (std::size_t r = 0; r < kRelations; ++r) {
      std::vector<RelEdge> edges;
      for (int e = 0; e < 25; ++e)
        edges.push_back(
            {static_cast<std::uint32_t>(rng.uniform_int(0, 16)),
             static_cast<std::uint32_t>(rng.uniform_int(0, 16)),
             static_cast<float>(rng.uniform(0.1, 1.0))});
      g.relations.push_back(RelationEdges::from_edges(edges, g.num_nodes));
    }
    tensor::Matrix x(g.num_nodes, in);
    tensor::uniform_init(x, rng, -1.0f, 1.0f);
    for (float& v : x.data())
      if (rng.uniform() < 0.4) v = 0.0f;  // exercise the zero-skip
    tensor::Matrix dy(g.num_nodes, out);
    tensor::uniform_init(dy, rng, -1.0f, 1.0f);

    auto fresh_grads = [&] {
      std::vector<tensor::Matrix> grads;
      for (const auto* p : std::as_const(conv).parameters())
        grads.emplace_back(p->rows(), p->cols());
      return grads;
    };
    std::vector<tensor::Matrix> with_dx = fresh_grads();
    std::vector<tensor::Matrix> without_dx = fresh_grads();
    tensor::Workspace ws;
    RgatConv::Cache cache;
    (void)conv.forward(x, g, cache, ws);
    const tensor::Matrix& dx = conv.backward(dy, g, cache, with_dx, ws);
    EXPECT_NE(dx.squared_norm(), 0.0);
    conv.backward_params(dy, g, cache, without_dx, ws);
    for (std::size_t p = 0; p < with_dx.size(); ++p) {
      ASSERT_TRUE(with_dx[p].same_shape(without_dx[p]));
      EXPECT_EQ(std::memcmp(with_dx[p].data().data(),
                            without_dx[p].data().data(),
                            with_dx[p].size() * sizeof(float)),
                0)
          << "in " << in << " out " << out << " param " << p;
    }
  }
}

/// A seeded random multigraph over n nodes. Every relation but the last is
/// single-edge: each node is a destination with probability 1/2, fed by one
/// uniform source, so fan-out, self-loops and destination-only rows all
/// occur (and some relations come out empty). The last relation has fan-in:
/// random edges plus a parallel pair and a self-loop, so it runs attention.
RelationalGraph random_relational_graph(pg::Rng& rng, std::size_t n,
                                        std::size_t relations) {
  RelationalGraph g;
  g.num_nodes = n;
  const auto last = static_cast<std::int64_t>(n) - 1;
  for (std::size_t r = 0; r + 1 < relations; ++r) {
    std::vector<RelEdge> edges;
    for (std::uint32_t v = 0; v < n; ++v)
      if (rng.uniform() < 0.5)
        edges.push_back({static_cast<std::uint32_t>(rng.uniform_int(0, last)),
                         v, static_cast<float>(rng.uniform(0.1, 1.0))});
    g.relations.push_back(RelationEdges::from_edges(edges, n));
  }
  std::vector<RelEdge> edges = random_edges(rng, 0, last, 2 * last);
  const auto v = static_cast<std::uint32_t>(rng.uniform_int(0, last));
  edges.push_back({0, v, 0.5f});
  edges.push_back({0, v, 0.5f});
  edges.push_back({v, v, 1.0f});
  g.relations.push_back(RelationEdges::from_edges(edges, n));
  return g;
}

TEST(RgatConv, GradientsMatchRecordedHash) {
  // Layer pin: the exact bytes of the forward output, every parameter
  // gradient (accumulated across calls, as the trainer does) and dL/dx,
  // over random_relational_graph, for dense inputs (a third of them zero,
  // for the sparse-row path) and for one-hot inputs through
  // backward_params. Any change to the layer's FP sequence moves the hash;
  // skipping work whose result is never read must not. Widths 8 and 24
  // take the templated-width kernels, 10 and 7 the runtime-width ones.
  constexpr std::size_t kRelations = 4;
  const struct {
    std::size_t in;
    std::size_t out;
    bool relu;
    std::uint64_t hash;
  } pins[] = {
      {48, 24, true, 0x560158acc97761deULL},
      {24, 24, true, 0x6987f8f6771e4c4dULL},
      {10, 10, false, 0x7778c0e12e4c9d28ULL},
      {7, 8, true, 0xe9ba07d1a014dbb3ULL},
  };
  for (const auto& pin : pins) {
    pg::Rng rng(91 + pin.in);
    const RgatConv conv(pin.in, pin.out, kRelations, rng, pin.relu);
    std::vector<tensor::Matrix> grads;
    for (const auto* p : conv.parameters())
      grads.emplace_back(p->rows(), p->cols());
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const tensor::Matrix& m) {
      const auto* bytes = reinterpret_cast<const unsigned char*>(m.data().data());
      for (std::size_t i = 0; i < m.size() * sizeof(float); ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ULL;
      }
    };
    for (int trial = 0; trial < 6; ++trial) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(2, 150));
      const RelationalGraph g = random_relational_graph(rng, n, kRelations);
      ASSERT_FALSE(g.relations.back().all_single_edge());
      tensor::Matrix dy(n, pin.out);
      tensor::uniform_init(dy, rng, -1.0f, 1.0f);
      tensor::Workspace ws;
      RgatConv::Cache cache;

      tensor::Matrix x(n, pin.in);
      tensor::uniform_init(x, rng, -1.0f, 1.0f);
      for (float& v : x.data())
        if (rng.uniform() < 0.33) v = 0.0f;
      mix(conv.forward(x, g, cache, ws));
      mix(conv.backward(dy, g, cache, grads, ws));
      for (const tensor::Matrix& grad : grads) mix(grad);

      ws.reset();
      std::vector<std::uint8_t> kinds(n);
      std::vector<float> literals(n);
      for (std::size_t i = 0; i < n; ++i) {
        kinds[i] = static_cast<std::uint8_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pin.in) - 2));
        literals[i] =
            rng.uniform() < 0.5 ? 0.0f : static_cast<float>(rng.uniform(-2, 2));
      }
      mix(conv.forward(OneHotRows{kinds, literals}, g, cache, ws));
      conv.backward_params(dy, g, cache, grads, ws);
      for (const tensor::Matrix& grad : grads) mix(grad);
    }
    EXPECT_EQ(h, pin.hash) << "in " << pin.in << " out " << pin.out
                           << ": 0x" << std::hex << h;
  }
}

TEST(RelationEdges, SenderIndexListsEachSourceOnce) {
  // Node 3 sends twice, 1 once (a self-loop), 0 and 2 only receive: the
  // index holds the two senders in ascending order, whatever the edge
  // order, and an attention relation gets none.
  const RelationEdges rel = RelationEdges::from_edges(
      {{3, 0, 1.0f}, {1, 1, 1.0f}, {3, 2, 1.0f}}, 5);
  ASSERT_TRUE(rel.all_single_edge());
  EXPECT_EQ(rel.src_nodes, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(rel.src_slot, (std::vector<std::uint32_t>{1, 0, 1}));
  for (std::size_t e = 0; e < rel.num_edges(); ++e)
    EXPECT_EQ(rel.src_nodes[rel.src_slot[e]], rel.nodes[rel.src_local[e]]);

  const RelationEdges fan_in =
      RelationEdges::from_edges({{0, 2, 1.0f}, {1, 2, 1.0f}}, 3);
  EXPECT_TRUE(fan_in.src_nodes.empty() && fan_in.src_slot.empty());
  EXPECT_TRUE(fan_in.has_sender_index());
}

TEST(RgatConv, ProjectsSendersOfSingleEdgeRelationsOnly) {
  // The cached g holds one row per sender of each single-edge relation
  // and one per active node of each attention relation.
  pg::Rng rng(12);
  constexpr std::size_t kRelations = 4;
  const RgatConv conv(6, 5, kRelations, rng);
  for (int trial = 0; trial < 5; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 40));
    const RelationalGraph g = random_relational_graph(rng, n, kRelations);
    std::size_t expected = 0, active = 0;
    for (const RelationEdges& rel : g.relations) {
      expected += rel.all_single_edge() ? rel.src_nodes.size()
                                        : rel.num_active_nodes();
      active += rel.num_active_nodes();
    }
    ASSERT_LT(expected, active) << "no destination-only row to drop";
    tensor::Matrix x(n, 6, 0.5f);
    tensor::Workspace ws;
    RgatConv::Cache cache;
    (void)conv.forward(x, g, cache, ws);
    EXPECT_EQ(cache.g->rows(), expected) << "trial " << trial;
  }
}

TEST(RgatConv, SingleEdgeRelationWithoutSenderIndexThrows) {
  // from_buckets builds the storage form, without the sender index;
  // handed to the layer unpacked, a single-edge relation is refused.
  const std::vector<RelEdge> edges = {{0, 1, 1.0f}, {1, 2, 1.0f},
                                      {0, 2, 1.0f}};
  const std::size_t buckets[] = {0, 1, 3};
  const RelationalGraph g = RelationalGraph::from_buckets(edges, buckets, 3);
  ASSERT_TRUE(g.relations[0].all_single_edge());
  ASSERT_FALSE(g.relations[0].has_sender_index());
  ASSERT_FALSE(g.relations[1].all_single_edge());
  pg::Rng rng(13);
  RgatConv conv(4, 4, 2, rng);
  tensor::Matrix x(3, 4, 0.5f);
  tensor::Workspace ws;
  RgatConv::Cache cache;
  EXPECT_THROW((void)conv.forward(x, g, cache, ws), InternalError);

  // The same edges through from_edges carry the index and pass.
  RelationalGraph indexed = g;
  indexed.relations[0] = RelationEdges::from_edges({{0, 1, 1.0f}}, 3);
  EXPECT_NO_THROW((void)conv.forward(x, indexed, cache, ws));
}

TEST(RgatConv, ParameterLayout) {
  pg::Rng rng(8);
  RgatConv conv(3, 5, 4, rng);
  const auto params = conv.parameters();
  ASSERT_EQ(params.size(), conv.num_params());
  ASSERT_EQ(params.size(), 3u * 4u + 2u);
  // Per relation: W [3x5], a_src [1x5], a_dst [1x5].
  EXPECT_EQ(params[0]->rows(), 3u);
  EXPECT_EQ(params[1]->rows(), 1u);
  EXPECT_EQ(params[2]->cols(), 5u);
  // Tail: W_self, bias.
  EXPECT_EQ(params[12]->rows(), 3u);
  EXPECT_EQ(params[13]->rows(), 1u);
}

}  // namespace
}  // namespace pg::nn
