// Wires encoding -> RGAT stack -> readout MLP; forward, backward, and
// parameter registration for Adam and checkpointing. All intermediates are
// workspace-borrowed: ForwardState is a plain struct of pointers into the
// Workspace of the current pass, so the hot path never touches the heap
// once the arena is warm. Both the single-graph and the fused GraphBatch
// entry points run the same batched core over a packed GraphBatch (B=1 vs
// B=N), which is what keeps their predictions bitwise-identical.
#include "model/paragraph_model.hpp"

#include <algorithm>
#include <cstring>

#include "nn/activation.hpp"
#include "nn/loss.hpp"
#include "support/check.hpp"

namespace pg::model {
namespace {

/// The single-graph entry points' one-graph batch and aux row. Packing is
/// what gives a graph its sender index, so these run the batch core like
/// every other caller; the buffers are this thread's and grow-only, so a
/// warmed-up call stays allocation-free.
struct OneGraphBatch {
  GraphBatch batch;
  tensor::Matrix aux;  // [1 x aux_dim]
};

const OneGraphBatch& pack_one(const EncodedGraph& graph,
                              std::span<const float> aux) {
  thread_local OneGraphBatch one;
  one.batch.pack(graph);
  one.aux.reshape(1, aux.size());
  std::copy(aux.begin(), aux.end(), one.aux.row_span(0).begin());
  return one;
}

}  // namespace

struct ParaGraphModel::ForwardState {
  nn::RgatConv::Cache c1, c2, c3;
  const tensor::Matrix* h1 = nullptr;      // conv outputs (post-ReLU)
  const tensor::Matrix* h2 = nullptr;
  const tensor::Matrix* h3 = nullptr;
  const tensor::Matrix* pooled = nullptr;  // [B x hidden]
  const tensor::Matrix* f1_pre = nullptr;  // fc1 pre/post activation
  const tensor::Matrix* f1 = nullptr;
  const tensor::Matrix* f2_pre = nullptr;  // fc2 pre/post activation
  const tensor::Matrix* f2 = nullptr;
  const tensor::Matrix* aux_in = nullptr;  // [B x aux_dim] (borrowed)
  const tensor::Matrix* aux_pre = nullptr; // aux_fc pre/post activation
  const tensor::Matrix* aux = nullptr;
  const tensor::Matrix* concat = nullptr;  // [B x hidden + aux_embed]
  const tensor::Matrix* out = nullptr;     // [B x 1] scaled predictions
};

ParaGraphModel::ParaGraphModel(const ModelConfig& config)
    : config_(config),
      conv1_([&] {
        pg::Rng rng(config.seed);
        return nn::RgatConv(kNodeFeatureDim, config.hidden_dim,
                            config.num_relations, rng);
      }()),
      conv2_([&] {
        pg::Rng rng(config.seed + 1);
        return nn::RgatConv(config.hidden_dim, config.hidden_dim,
                            config.num_relations, rng);
      }()),
      conv3_([&] {
        pg::Rng rng(config.seed + 2);
        return nn::RgatConv(config.hidden_dim, config.hidden_dim,
                            config.num_relations, rng);
      }()),
      fc1_([&] {
        pg::Rng rng(config.seed + 3);
        return nn::Linear(config.hidden_dim, config.hidden_dim, rng);
      }()),
      fc2_([&] {
        pg::Rng rng(config.seed + 4);
        return nn::Linear(config.hidden_dim, config.hidden_dim, rng);
      }()),
      aux_fc_([&] {
        pg::Rng rng(config.seed + 5);
        return nn::Linear(config.aux_dim, config.aux_embed_dim, rng);
      }()),
      out_fc_([&] {
        pg::Rng rng(config.seed + 6);
        return nn::Linear(config.hidden_dim + config.aux_embed_dim, 1, rng);
      }()) {}

void ParaGraphModel::run_embed(const GraphBatch& batch, ForwardState& s,
                               tensor::Workspace& ws) const {
  check(!batch.empty(), "run_embed: empty batch");
  const nn::RelationalGraph& relations = batch.relations();

  s.h1 = &conv1_.forward(batch.node_rows(), relations, s.c1, ws);
  s.h2 = &conv2_.forward(*s.h1, relations, s.c2, ws);
  s.h3 = &conv3_.forward(*s.h2, relations, s.c3, ws);
  tensor::Matrix& pooled = ws.acquire_uninit(batch.size(), config_.hidden_dim);
  tensor::segment_row_mean_into(pooled, *s.h3, batch.node_offsets());
  s.pooled = &pooled;
}

void ParaGraphModel::run_head(const tensor::Matrix& aux_in, ForwardState& s,
                              tensor::Workspace& ws) const {
  const std::size_t batch = s.pooled->rows();
  check(aux_in.rows() == batch && aux_in.cols() == config_.aux_dim,
        "aux feature shape mismatch");

  s.f1_pre = &fc1_.forward(*s.pooled, ws);
  tensor::Matrix& f1 = ws.acquire_uninit(batch, config_.hidden_dim);
  nn::relu_into(f1, *s.f1_pre);
  s.f1 = &f1;
  s.f2_pre = &fc2_.forward(f1, ws);
  tensor::Matrix& f2 = ws.acquire_uninit(batch, config_.hidden_dim);
  nn::relu_into(f2, *s.f2_pre);
  s.f2 = &f2;

  s.aux_in = &aux_in;
  s.aux_pre = &aux_fc_.forward(aux_in, ws);
  tensor::Matrix& aux_act = ws.acquire_uninit(batch, config_.aux_embed_dim);
  nn::relu_into(aux_act, *s.aux_pre);
  s.aux = &aux_act;

  tensor::Matrix& concat =
      ws.acquire_uninit(batch, config_.hidden_dim + config_.aux_embed_dim);
  for (std::size_t b = 0; b < batch; ++b) {
    // Pure copies (no FP ops), so memcpy is bitwise-neutral.
    auto dst = concat.row_span(b);
    std::memcpy(dst.data(), f2.row_span(b).data(),
                config_.hidden_dim * sizeof(float));
    std::memcpy(dst.data() + config_.hidden_dim, aux_act.row_span(b).data(),
                config_.aux_embed_dim * sizeof(float));
  }
  s.concat = &concat;

  s.out = &out_fc_.forward(concat, ws);
}

void ParaGraphModel::run_forward(const GraphBatch& batch,
                                 const tensor::Matrix& aux_in,
                                 ForwardState& s,
                                 tensor::Workspace& ws) const {
  run_embed(batch, s, ws);
  run_head(aux_in, s, ws);
}

void ParaGraphModel::embed_batch(const GraphBatch& batch, tensor::Matrix& out,
                                 tensor::Workspace& ws) const {
  if (batch.empty()) {
    out.reshape(0, config_.hidden_dim);
    return;
  }
  ws.reset();
  ForwardState s;
  run_embed(batch, s, ws);
  out.reshape(batch.size(), config_.hidden_dim);
  for (std::size_t b = 0; b < batch.size(); ++b) {
    // Pure copies (no FP ops), so memcpy is bitwise-neutral.
    std::memcpy(out.row_span(b).data(), s.pooled->row_span(b).data(),
                config_.hidden_dim * sizeof(float));
  }
}

double ParaGraphModel::predict(const EncodedGraph& graph,
                               std::span<const float> aux,
                               tensor::Workspace& ws) const {
  check(aux.size() == config_.aux_dim, "aux feature size mismatch");
  const OneGraphBatch& one = pack_one(graph, aux);
  double prediction = 0.0;
  predict_batch(one.batch, one.aux, {&prediction, 1}, ws);
  return prediction;
}

double ParaGraphModel::predict(const EncodedGraph& graph,
                               std::span<const float> aux) const {
  thread_local tensor::Workspace ws;
  return predict(graph, aux, ws);
}

void ParaGraphModel::predict_batch(const GraphBatch& batch,
                                   const tensor::Matrix& aux,
                                   std::span<double> out,
                                   tensor::Workspace& ws) const {
  check(out.size() == batch.size(), "predict_batch: output span mismatch");
  if (batch.empty()) return;
  ws.reset();
  ForwardState s;
  run_forward(batch, aux, s, ws);
  for (std::size_t b = 0; b < out.size(); ++b)
    out[b] = static_cast<double>((*s.out)(b, 0));
}

void ParaGraphModel::run_backward(const GraphBatch& graphs,
                                  const ForwardState& s,
                                  const tensor::Matrix& dout,
                                  std::span<tensor::Matrix> grads,
                                  tensor::Workspace& ws) const {
  check(grads.size() == num_params(), "gradient buffer size mismatch");
  const std::size_t batch = graphs.size();
  const std::span<const std::uint32_t> offsets = graphs.node_offsets();
  const nn::RelationalGraph& relations = graphs.relations();

  // Parameter layout: conv1, conv2, conv3, fc1, fc2, aux_fc, out_fc.
  const std::size_t conv_params = conv1_.num_params();
  std::size_t offset = 0;
  auto conv1_grads = grads.subspan(offset, conv_params); offset += conv_params;
  auto conv2_grads = grads.subspan(offset, conv_params); offset += conv_params;
  auto conv3_grads = grads.subspan(offset, conv_params); offset += conv_params;
  auto fc1_grads = grads.subspan(offset, 2); offset += 2;
  auto fc2_grads = grads.subspan(offset, 2); offset += 2;
  auto aux_grads = grads.subspan(offset, 2); offset += 2;
  auto out_grads = grads.subspan(offset, 2); offset += 2;
  check(offset == grads.size(), "parameter layout mismatch");

  tensor::Matrix& dconcat = out_fc_.backward(*s.concat, dout, out_grads, ws);

  tensor::Matrix& df2 = ws.acquire_uninit(batch, config_.hidden_dim);
  tensor::Matrix& daux = ws.acquire_uninit(batch, config_.aux_embed_dim);
  for (std::size_t b = 0; b < batch; ++b) {
    // Pure copies (no FP ops), so memcpy is bitwise-neutral.
    auto src = dconcat.row_span(b);
    std::memcpy(df2.row_span(b).data(), src.data(),
                config_.hidden_dim * sizeof(float));
    std::memcpy(daux.row_span(b).data(), src.data() + config_.hidden_dim,
                config_.aux_embed_dim * sizeof(float));
  }

  // Aux branch.
  tensor::Matrix& daux_pre = ws.acquire_uninit(batch, config_.aux_embed_dim);
  nn::relu_backward_into(daux_pre, daux, *s.aux_pre);
  (void)aux_fc_.backward(*s.aux_in, daux_pre, aux_grads, ws);

  // Graph head.
  tensor::Matrix& df2_pre = ws.acquire_uninit(batch, config_.hidden_dim);
  nn::relu_backward_into(df2_pre, df2, *s.f2_pre);
  tensor::Matrix& df1 = fc2_.backward(*s.f1, df2_pre, fc2_grads, ws);
  tensor::Matrix& df1_pre = ws.acquire_uninit(batch, config_.hidden_dim);
  nn::relu_backward_into(df1_pre, df1, *s.f1_pre);
  tensor::Matrix& dpooled = fc1_.backward(*s.pooled, df1_pre, fc1_grads, ws);

  // Segmented mean-pool backward: every node row of graph b receives
  // dpooled.row(b) / N_b.
  const std::size_t n = s.h3->rows();
  tensor::Matrix& dh3 = ws.acquire_uninit(n, config_.hidden_dim);
  for (std::size_t b = 0; b < batch; ++b) {
    const std::size_t lo = offsets[b];
    const std::size_t hi = offsets[b + 1];
    const float inv_n = 1.0f / static_cast<float>(hi - lo);
    auto src = dpooled.row_span(b);
    for (std::size_t i = lo; i < hi; ++i) {
      auto row = dh3.row_span(i);
      for (std::size_t j = 0; j < config_.hidden_dim; ++j)
        row[j] = src[j] * inv_n;
    }
  }

  tensor::Matrix& dh2 = conv3_.backward(dh3, relations, s.c3, conv3_grads, ws);
  tensor::Matrix& dh1 = conv2_.backward(dh2, relations, s.c2, conv2_grads, ws);
  // conv1's input is the constant node features: no dL/dx to compute.
  conv1_.backward_params(dh1, relations, s.c1, conv1_grads, ws);
}

double ParaGraphModel::accumulate_gradients(const EncodedGraph& graph,
                                            std::span<const float> aux,
                                            double target, double grad_scale,
                                            std::span<tensor::Matrix> grads,
                                            tensor::Workspace& ws) const {
  check(aux.size() == config_.aux_dim, "aux feature size mismatch");
  const OneGraphBatch& one = pack_one(graph, aux);
  ws.reset();
  ForwardState s;
  run_forward(one.batch, one.aux, s, ws);
  const double prediction = static_cast<double>((*s.out)(0, 0));

  tensor::Matrix& dout = ws.acquire_uninit(1, 1);
  dout(0, 0) = static_cast<float>(nn::mse_grad(prediction, target) * grad_scale);
  run_backward(one.batch, s, dout, grads, ws);
  return prediction;
}

double ParaGraphModel::accumulate_gradients(const EncodedGraph& graph,
                                            std::span<const float> aux,
                                            double target, double grad_scale,
                                            std::span<tensor::Matrix> grads) const {
  thread_local tensor::Workspace ws;
  return accumulate_gradients(graph, aux, target, grad_scale, grads, ws);
}

double ParaGraphModel::accumulate_gradients_batch(
    const GraphBatch& batch, const tensor::Matrix& aux,
    std::span<const double> targets, double grad_scale,
    std::span<tensor::Matrix> grads, tensor::Workspace& ws) const {
  check(targets.size() == batch.size(),
        "accumulate_gradients_batch: target span mismatch");
  if (batch.empty()) return 0.0;
  ws.reset();
  ForwardState s;
  run_forward(batch, aux, s, ws);

  tensor::Matrix& dout = ws.acquire_uninit(batch.size(), 1);
  double loss = 0.0;
  for (std::size_t b = 0; b < targets.size(); ++b) {
    const double prediction = static_cast<double>((*s.out)(b, 0));
    const double d = prediction - targets[b];
    loss += d * d;
    dout(b, 0) =
        static_cast<float>(nn::mse_grad(prediction, targets[b]) * grad_scale);
  }
  run_backward(batch, s, dout, grads, ws);
  return loss;
}

std::vector<tensor::Matrix*> ParaGraphModel::parameters() {
  std::vector<tensor::Matrix*> params;
  for (auto* p : conv1_.parameters()) params.push_back(p);
  for (auto* p : conv2_.parameters()) params.push_back(p);
  for (auto* p : conv3_.parameters()) params.push_back(p);
  for (auto* p : fc1_.parameters()) params.push_back(p);
  for (auto* p : fc2_.parameters()) params.push_back(p);
  for (auto* p : aux_fc_.parameters()) params.push_back(p);
  for (auto* p : out_fc_.parameters()) params.push_back(p);
  return params;
}

std::vector<const tensor::Matrix*> ParaGraphModel::parameters() const {
  std::vector<const tensor::Matrix*> params;
  for (const auto* p : conv1_.parameters()) params.push_back(p);
  for (const auto* p : conv2_.parameters()) params.push_back(p);
  for (const auto* p : conv3_.parameters()) params.push_back(p);
  for (const auto* p : fc1_.parameters()) params.push_back(p);
  for (const auto* p : fc2_.parameters()) params.push_back(p);
  for (const auto* p : aux_fc_.parameters()) params.push_back(p);
  for (const auto* p : out_fc_.parameters()) params.push_back(p);
  return params;
}

std::size_t ParaGraphModel::num_params() const {
  return 3 * conv1_.num_params() + 4 * 2;
}

}  // namespace pg::model
