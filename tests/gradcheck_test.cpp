// Numerical gradient checks for every layer with a hand-written backward
// pass (Linear, Mlp, RgatConv, and the full ParaGraphModel).
//
// Method: central differences on a scalar loss L. For float32 parameters a
// relative tolerance of a few percent with eps ~1e-2..1e-3 is the right
// regime; we check a deterministic subset of coordinates per parameter.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "model/paragraph_model.hpp"
#include "nn/linear.hpp"
#include "nn/mlp.hpp"
#include "nn/rgat.hpp"
#include "support/rng.hpp"
#include "tensor/init.hpp"
#include "tensor/workspace.hpp"

namespace pg {
namespace {

using tensor::Matrix;

/// Checks d(loss)/d(param[coord]) for a list of parameters against central
/// differences. `loss` must be a pure function of the parameters.
///
/// `min_pass_fraction`: fraction of probed coordinates that must match.
/// For smooth losses use 1.0. For losses containing ReLU kinks, a small
/// minority of coordinates sit close enough to a kink that the finite
/// difference itself is biased by O(eps) — a real backward bug, by
/// contrast, corrupts essentially every coordinate — so the composite
/// model checks use 0.8.
void check_parameter_gradients(const std::vector<Matrix*>& params,
                               const std::vector<Matrix>& analytic,
                               const std::function<double()>& loss,
                               double eps, double rel_tol, double abs_tol,
                               double min_pass_fraction = 1.0) {
  ASSERT_EQ(params.size(), analytic.size());
  std::size_t total = 0;
  std::size_t passed = 0;
  for (std::size_t p = 0; p < params.size(); ++p) {
    Matrix& theta = *params[p];
    ASSERT_TRUE(analytic[p].same_shape(theta)) << "param " << p;
    // Probe a deterministic subset: first, middle, last coordinate.
    std::vector<std::size_t> coords = {0, theta.size() / 2, theta.size() - 1};
    for (const std::size_t c : coords) {
      float* value = &theta.data()[c];
      const float saved = *value;
      *value = saved + static_cast<float>(eps);
      const double up = loss();
      *value = saved - static_cast<float>(eps);
      const double down = loss();
      *value = saved;
      const double numeric = (up - down) / (2.0 * eps);
      const double analytic_value = analytic[p].data()[c];
      const double scale =
          std::max({std::abs(numeric), std::abs(analytic_value), abs_tol});
      const bool ok = std::abs(analytic_value - numeric) <= rel_tol * scale;
      ++total;
      passed += ok;
      if (min_pass_fraction >= 1.0) {
        EXPECT_NEAR(analytic_value, numeric, rel_tol * scale)
            << "param " << p << " coord " << c;
      }
    }
  }
  EXPECT_GE(static_cast<double>(passed),
            min_pass_fraction * static_cast<double>(total))
      << "only " << passed << "/" << total << " gradient coordinates matched";
}

// ---------------------------------------------------------------- linear ---

TEST(GradCheck, LinearWeightsBiasAndInput) {
  pg::Rng rng(1);
  nn::Linear layer(4, 3, rng);
  Matrix x(2, 4);
  pg::Rng xr(2);
  tensor::uniform_init(x, xr, -1.0f, 1.0f);
  // Loss: sum of squares of outputs (smooth everywhere).
  auto loss = [&] {
    const Matrix y = layer.forward(x);
    return y.squared_norm();
  };
  // Analytic: dL/dy = 2y.
  const Matrix y = layer.forward(x);
  Matrix dy = y;
  dy.scale_(2.0f);
  std::vector<Matrix> grads;
  grads.emplace_back(4, 3);
  grads.emplace_back(1, 3);
  const Matrix dx = layer.backward(x, dy, grads);

  check_parameter_gradients(layer.parameters(), grads, loss, 1e-2, 0.05, 1e-4);

  // Input gradient.
  for (std::size_t c : {std::size_t{0}, std::size_t{3}, std::size_t{7}}) {
    float* value = &x.data()[c];
    const float saved = *value;
    *value = saved + 1e-2f;
    const double up = loss();
    *value = saved - 1e-2f;
    const double down = loss();
    *value = saved;
    const double numeric = (up - down) / 2e-2;
    EXPECT_NEAR(dx.data()[c], numeric, 0.05 * std::max(1e-4, std::abs(numeric)));
  }
}

// ------------------------------------------------------------------- mlp ---

TEST(GradCheck, MlpThroughReluLayers) {
  pg::Rng rng(3);
  nn::Mlp mlp({3, 8, 5, 1}, rng);
  Matrix x(4, 3);
  pg::Rng xr(4);
  tensor::uniform_init(x, xr, -1.0f, 1.0f);

  auto loss = [&] {
    const Matrix y = mlp.forward(x);
    return y.squared_norm();
  };

  nn::Mlp::Cache cache;
  const Matrix y = mlp.forward(x, cache);
  Matrix dy = y;
  dy.scale_(2.0f);
  std::vector<Matrix> grads;
  for (auto* p : mlp.parameters()) grads.emplace_back(p->rows(), p->cols());
  (void)mlp.backward(dy, cache, grads);

  // ReLU kinks: statistical criterion (see check_parameter_gradients).
  check_parameter_gradients(mlp.parameters(), grads, loss, 1e-2, 0.08, 1e-4,
                            /*min_pass_fraction=*/0.85);
}

// ------------------------------------------------------------------ rgat ---

nn::RelationalGraph gradcheck_graph() {
  // 6 nodes, 3 relations: a weighted chain, a fan-in, and a sparse edge.
  // The first two have a multi-edge destination (attention runs), the
  // last only one-edge groups (the gated scatter runs), so the finite
  // differences cover both RgatConv paths.
  nn::RelationalGraph g;
  g.num_nodes = 6;
  g.relations.push_back(nn::RelationEdges::from_edges({
      {0, 1, 0.7f},
      {1, 2, 0.2f},
      {2, 3, 1.0f},
      {4, 3, 0.5f},
  }, 6));
  g.relations.push_back(nn::RelationEdges::from_edges({
      {0, 5, 1.0f},
      {1, 5, 1.0f},
      {2, 5, 1.0f},
  }, 6));
  g.relations.push_back(nn::RelationEdges::from_edges({{5, 0, 1.0f}}, 6));
  return g;
}

TEST(GradCheck, RgatConvAllParameters) {
  pg::Rng rng(5);
  // No ReLU: keeps the loss smooth so central differences are reliable.
  nn::RgatConv conv(4, 3, 3, rng, /*apply_relu=*/false);
  const nn::RelationalGraph g = gradcheck_graph();
  ASSERT_FALSE(g.relations[0].all_single_edge());
  ASSERT_FALSE(g.relations[1].all_single_edge());
  ASSERT_TRUE(g.relations[2].all_single_edge());
  Matrix x(6, 4);
  pg::Rng xr(6);
  tensor::uniform_init(x, xr, -1.0f, 1.0f);

  auto loss = [&] {
    tensor::Workspace loss_ws;
    nn::RgatConv::Cache cache;
    const Matrix y = conv.forward(x, g, cache, loss_ws);
    return y.squared_norm();
  };

  tensor::Workspace ws;
  nn::RgatConv::Cache cache;
  const Matrix y = conv.forward(x, g, cache, ws);
  Matrix dy = y;
  dy.scale_(2.0f);
  std::vector<Matrix> grads;
  for (auto* p : conv.parameters()) grads.emplace_back(p->rows(), p->cols());
  const Matrix dx = conv.backward(dy, g, cache, grads, ws);

  check_parameter_gradients(conv.parameters(), grads, loss, 5e-3, 0.08, 1e-4);

  // Input gradients (includes attention + message + self paths).
  for (std::size_t c = 0; c < x.size(); c += 5) {
    float* value = &x.data()[c];
    const float saved = *value;
    *value = saved + 5e-3f;
    const double up = loss();
    *value = saved - 5e-3f;
    const double down = loss();
    *value = saved;
    const double numeric = (up - down) / 1e-2;
    EXPECT_NEAR(dx.data()[c], numeric,
                0.08 * std::max(1e-3, std::abs(numeric)))
        << "x coord " << c;
  }
}

TEST(GradCheck, RgatConvWithRelu) {
  pg::Rng rng(7);
  nn::RgatConv conv(3, 3, 1, rng, /*apply_relu=*/true);
  nn::RelationalGraph g;
  g.num_nodes = 3;
  g.relations.push_back(
      nn::RelationEdges::from_edges({{0, 1, 0.8f}, {2, 1, 0.3f}}, 3));
  Matrix x(3, 3);
  pg::Rng xr(8);
  tensor::uniform_init(x, xr, 0.2f, 1.0f);  // keep pre-activations away from 0

  auto loss = [&] {
    tensor::Workspace loss_ws;
    nn::RgatConv::Cache cache;
    return conv.forward(x, g, cache, loss_ws).squared_norm();
  };

  tensor::Workspace ws;
  nn::RgatConv::Cache cache;
  const Matrix y = conv.forward(x, g, cache, ws);
  Matrix dy = y;
  dy.scale_(2.0f);
  std::vector<Matrix> grads;
  for (auto* p : conv.parameters()) grads.emplace_back(p->rows(), p->cols());
  (void)conv.backward(dy, g, cache, grads, ws);

  check_parameter_gradients(conv.parameters(), grads, loss, 5e-3, 0.1, 1e-4);
}

// --------------------------------------------------------- whole model ---

TEST(GradCheck, ParaGraphModelEndToEnd) {
  model::ModelConfig config;
  config.hidden_dim = 6;
  config.aux_embed_dim = 3;
  config.seed = 11;
  model::ParaGraphModel gnn(config);

  // A small encoded graph: 6 nodes of 6 kinds, two with nonzero literals
  // (so the literal row's gradient is checked too), and the 8 standard
  // relations (most empty).
  model::EncodedGraph graph;
  graph.kinds = {0, 1, 2, 3, 4, 43};
  graph.literals = {0.0f, 0.5f, 0.0f, 0.0f, 1.25f, 0.0f};
  graph.relations.num_nodes = 6;
  graph.relations.relations.resize(graph::kNumEdgeTypes);
  graph.relations.relations[0] = nn::RelationEdges::from_edges(
      {{0, 1, 0.4f}, {1, 2, 0.9f}, {2, 3, 0.1f}}, 6);
  graph.relations.relations[2] =
      nn::RelationEdges::from_edges({{3, 4, 1.0f}, {4, 5, 1.0f}}, 6);

  const std::array<float, 2> aux = {0.3f, 0.8f};
  const double target = 0.25;

  auto loss = [&] {
    const double pred = gnn.predict(graph, aux);
    return (pred - target) * (pred - target);
  };

  std::vector<Matrix> grads;
  for (auto* p : gnn.parameters()) grads.emplace_back(p->rows(), p->cols());
  (void)gnn.accumulate_gradients(graph, aux, target, 1.0, grads);

  // Three RGAT layers + three ReLU heads: a few coordinates always sit on a
  // kink; require 80% strict agreement (a wrong backward fails ~all).
  check_parameter_gradients(gnn.parameters(), grads, loss, 5e-3, 0.12, 5e-5,
                            /*min_pass_fraction=*/0.8);
}

}  // namespace
}  // namespace pg
