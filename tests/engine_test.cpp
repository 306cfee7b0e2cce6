// Tests for the batched InferenceEngine and the fused GraphBatch path:
// exact (bitwise) agreement between the fused block-diagonal forward,
// predict_one, and the model's own predict; span validation; warm-pool
// steady state; the microsecond-domain sample path against predict_all;
// embed_batch rows against single-graph embeds at every SIMD level; and
// thread-count-independent training.
#include <gtest/gtest.h>

#include <omp.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "model/encoding.hpp"
#include "model/engine.hpp"
#include "model/graph_batch.hpp"
#include "model/trainer.hpp"
#include "support/check.hpp"
#include "tensor/simd.hpp"

namespace pg::model {
namespace {

graph::ProgramGraph small_graph() {
  auto r = frontend::parse_source(R"(
    void f(void) {
      for (int i = 0; i < 40; i++) {
        double x = 1.0;
      }
    }
  )");
  EXPECT_TRUE(r.ok());
  return graph::build_graph(r.root(), {});
}

/// A batch whose elements genuinely differ: the same program graph encoded
/// at different weight scales, with varying aux features.
std::pair<std::vector<EncodedGraph>, std::vector<std::array<float, 2>>>
make_batch(std::size_t n) {
  const auto g = small_graph();
  std::vector<EncodedGraph> graphs;
  std::vector<std::array<float, 2>> aux;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i + 1) / static_cast<double>(n);
    graphs.push_back(encode_graph(g, 40.0 + 400.0 * t));
    aux.push_back({static_cast<float>(t), static_cast<float>(1.0 - t)});
  }
  return {std::move(graphs), std::move(aux)};
}

TEST(InferenceEngine, PredictOneMatchesModelPredict) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 3});
  InferenceEngine engine(m);
  auto [graphs, aux] = make_batch(4);
  for (std::size_t i = 0; i < graphs.size(); ++i)
    EXPECT_EQ(engine.predict_one(graphs[i], aux[i]), m.predict(graphs[i], aux[i]));
}

TEST(InferenceEngine, BatchMatchesSequentialPredictOneBitwise) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 5});
  InferenceEngine engine(m);
  auto [graphs, aux] = make_batch(17);  // not a multiple of the chunk size
  std::vector<double> batched(graphs.size());
  engine.predict_batch(graphs, aux, batched);

  InferenceEngine sequential(m);
  for (std::size_t i = 0; i < graphs.size(); ++i)
    EXPECT_EQ(batched[i], sequential.predict_one(graphs[i], aux[i])) << i;
}

TEST(InferenceEngine, RepeatedBatchIsDeterministic) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 7});
  InferenceEngine engine(m);
  auto [graphs, aux] = make_batch(8);
  std::vector<double> first(graphs.size()), second(graphs.size());
  engine.predict_batch(graphs, aux, first);
  engine.predict_batch(graphs, aux, second);
  EXPECT_EQ(first, second);
}

TEST(InferenceEngine, WarmPoolStopsGrowing) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 7});
  InferenceEngine engine(m);
  auto [graphs, aux] = make_batch(8);
  std::vector<double> out(graphs.size());
  // Dynamic scheduling hands chunks to whichever thread is free, so only a
  // pool in which every thread has run every chunk is warm whatever the
  // draw; warm_pool does exactly that, deterministically.
  engine.warm_pool(graphs, aux);
  const std::size_t slots = engine.workspace_slots();
  const std::size_t bytes = engine.workspace_bytes();
  EXPECT_GT(slots, 0u);
  for (int round = 0; round < 3; ++round) {
    engine.predict_batch(graphs, aux, out);
    EXPECT_EQ(engine.workspace_slots(), slots) << "round " << round;
    EXPECT_EQ(engine.workspace_bytes(), bytes) << "round " << round;
  }
}

TEST(InferenceEngine, EmptyBatchIsANoOp) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 2});
  InferenceEngine engine(m);
  engine.predict_batch({}, {}, {});
  EXPECT_EQ(engine.workspace_slots(), 0u);
}

TEST(InferenceEngine, SpanLengthMismatchThrows) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 2});
  InferenceEngine engine(m);
  auto [graphs, aux] = make_batch(3);
  std::vector<double> bad(2);
  EXPECT_THROW(engine.predict_batch(graphs, aux, bad), InternalError);
}

TEST(GraphBatch, FusedForwardIsBitwiseEqualToPerGraphPredict) {
  // The tentpole invariant: packing B graphs block-diagonally and running
  // ONE fused forward yields bit-for-bit the predictions of B independent
  // forwards.
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 11});
  auto [graphs, aux] = make_batch(5);

  GraphBatch batch;
  batch.pack(graphs);
  ASSERT_EQ(batch.size(), graphs.size());
  tensor::Matrix aux_m(graphs.size(), 2);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    aux_m(i, 0) = aux[i][0];
    aux_m(i, 1) = aux[i][1];
  }
  std::vector<double> fused(graphs.size());
  tensor::Workspace ws;
  m.predict_batch(batch, aux_m, fused, ws);

  for (std::size_t i = 0; i < graphs.size(); ++i)
    EXPECT_EQ(fused[i], m.predict(graphs[i], aux[i])) << i;
}

TEST(GraphBatch, BlockDiagonalPackingIsExact) {
  auto [graphs, aux] = make_batch(3);
  (void)aux;
  GraphBatch batch;
  batch.pack(graphs);

  // Node offsets partition the concatenated id space.
  const auto offsets = batch.node_offsets();
  ASSERT_EQ(offsets.size(), 4u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[3], batch.node_rows().rows());
  EXPECT_EQ(batch.node_rows().literals.size(), batch.node_rows().rows());
  EXPECT_EQ(batch.relations().num_nodes, batch.node_rows().rows());

  // Every relation is the per-graph relations concatenated with offsets:
  // expanding the packed CSR must reproduce each graph's triples shifted
  // into its node block.
  for (std::size_t r = 0; r < batch.relations().relations.size(); ++r) {
    std::vector<nn::RelEdge> expected;
    for (std::size_t b = 0; b < graphs.size(); ++b)
      for (nn::RelEdge e : graphs[b].relations.relations[r].to_edges()) {
        e.src += offsets[b];
        e.dst += offsets[b];
        expected.push_back(e);
      }
    EXPECT_EQ(batch.relations().relations[r].to_edges(), expected) << "rel " << r;
  }

  // Repacking reuses capacity: no shape drift.
  batch.pack(graphs);
  EXPECT_EQ(batch.size(), graphs.size());
  EXPECT_EQ(batch.node_offsets()[3], offsets[3]);
}

TEST(GraphBatch, SenderIndexMatchesFromEdgesOverTheUnion) {
  // Stored graphs carry no sender index; packing derives it. Packing
  // [a, b] must give every relation the index from_edges builds over the
  // block-diagonal union of a and b (and none for an attention relation),
  // and a repack must not keep a stale one.
  auto nested = frontend::parse_source(R"(
    void g(double* a, double* b) {
      for (int i = 0; i < 16; i++) {
        for (int j = 0; j < 12; j++) {
          a[i * 12 + j] = a[i * 12 + j] + 2.0 * b[j];
        }
      }
    }
  )");
  ASSERT_TRUE(nested.ok());
  const std::vector<EncodedGraph> graphs = {
      encode_graph(small_graph(), 40.0),
      encode_graph(graph::build_graph(nested.root(), {}), 700.0)};

  GraphBatch batch;
  const auto expect_union_index = [&](std::span<const EncodedGraph> packed) {
    batch.pack(packed);
    const auto offsets = batch.node_offsets();
    std::size_t indexed = 0, attention = 0;
    for (std::size_t r = 0; r < batch.relations().relations.size(); ++r) {
      std::vector<nn::RelEdge> edges;
      for (std::size_t b = 0; b < packed.size(); ++b) {
        const nn::RelationEdges& rel = packed[b].relations.relations[r];
        EXPECT_TRUE(rel.src_nodes.empty() && rel.src_slot.empty()) << r;
        for (nn::RelEdge e : rel.to_edges()) {
          e.src += offsets[b];
          e.dst += offsets[b];
          edges.push_back(e);
        }
      }
      const nn::RelationEdges expected =
          nn::RelationEdges::from_edges(edges, offsets.back());
      const nn::RelationEdges& got = batch.relations().relations[r];
      EXPECT_EQ(got.src_nodes, expected.src_nodes) << "rel " << r;
      EXPECT_EQ(got.src_slot, expected.src_slot) << "rel " << r;
      EXPECT_TRUE(got.has_sender_index()) << "rel " << r;
      indexed += !got.src_slot.empty();
      attention += !got.all_single_edge();
    }
    EXPECT_GT(indexed, 0u);
    return attention;
  };
  EXPECT_GT(expect_union_index(graphs), 0u);  // the nested graph's Ref
  expect_union_index(std::span(graphs).first(1));
  expect_union_index(std::span(graphs).last(1));
}

TEST(InferenceEngine, MultiChunkBatchMatchesPredictOneBitwise) {
  // More graphs than one fuse chunk (64): exercises the chunked fan-out and
  // its boundary handling.
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 13});
  InferenceEngine engine(m);
  auto [graphs, aux] = make_batch(67);
  std::vector<double> batched(graphs.size());
  engine.predict_batch(graphs, aux, batched);

  InferenceEngine sequential(m);
  for (std::size_t i = 0; i < graphs.size(); ++i)
    EXPECT_EQ(batched[i], sequential.predict_one(graphs[i], aux[i])) << i;
}

TEST(EmbedBatch, RowsMatchSingleGraphEmbedAtAnyBatchSizeAndLevel) {
  // Each pooled row is a function of its own graph only, whatever the batch
  // size, chunk plan or kernel level: row i of a batch embed is bitwise the
  // embed of graph i alone, and both levels write the same bytes.
  namespace simd = tensor::simd;
  const simd::SimdLevel saved = simd::active_level();
  std::vector<std::string> per_level;
  for (const simd::SimdLevel level :
       {simd::SimdLevel::kScalar, simd::max_supported_level()}) {
    simd::set_active_level(level);
    ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 3});
    InferenceEngine engine(m);
    std::string bytes;
    for (const std::size_t n : {1u, 3u, 16u, 33u}) {
      auto [graphs, aux] = make_batch(n);
      tensor::Matrix pooled;
      engine.embed_batch(graphs, pooled);
      ASSERT_EQ(pooled.rows(), n);
      ASSERT_EQ(pooled.cols(), m.config().hidden_dim);
      const std::size_t row_bytes = pooled.cols() * sizeof(float);
      for (std::size_t i = 0; i < n; ++i) {
        tensor::Matrix single;
        engine.embed_batch(std::span<const EncodedGraph>(&graphs[i], 1),
                           single);
        EXPECT_EQ(std::memcmp(pooled.row_span(i).data(),
                              single.row_span(0).data(), row_bytes),
                  0)
            << simd::level_name(level) << " batch " << n << " row " << i;
      }
      bytes.append(reinterpret_cast<const char*>(pooled.data().data()),
                   n * row_bytes);
    }
    per_level.push_back(std::move(bytes));
  }
  simd::set_active_level(saved);
  EXPECT_EQ(per_level[0], per_level[1]);
}

TEST(Trainer, TrainingIsIndependentOfThreadCount) {
  // The fixed-chunk fused gradient accumulation must make train_model
  // bitwise-reproducible whatever OpenMP does: same history, same final
  // validation predictions for 1 thread and for several.
  SampleSet set;
  set.target_scaler.fit_bounds(0.0, 1000.0);
  set.teams_scaler.fit_bounds(1.0, 2.0);
  set.threads_scaler.fit_bounds(1.0, 2.0);
  const auto g = small_graph();
  for (std::size_t i = 0; i < 10; ++i) {
    TrainingSample s;
    const double t = static_cast<double>(i) / 10.0;
    s.graph = encode_graph(g, 40.0 + 400.0 * t);
    s.aux = {static_cast<float>(t), static_cast<float>(1.0 - t)};
    s.runtime_us = 100.0 + 800.0 * t;
    s.target_scaled = set.target_scaler.transform(s.runtime_us);
    (i % 3 == 0 ? set.validation : set.train).push_back(std::move(s));
  }
  TrainConfig config;
  config.epochs = 3;
  config.batch_size = 4;

  const int saved_threads = omp_get_max_threads();
  auto run = [&](int threads) {
    omp_set_num_threads(threads);
    ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 21});
    return train_model(m, set, config);
  };
  const TrainResult one = run(1);
  const TrainResult three = run(3);
  omp_set_num_threads(saved_threads);

  ASSERT_EQ(one.history.size(), three.history.size());
  for (std::size_t e = 0; e < one.history.size(); ++e) {
    EXPECT_EQ(one.history[e].train_mse_scaled, three.history[e].train_mse_scaled)
        << "epoch " << e;
    EXPECT_EQ(one.history[e].val_rmse_us, three.history[e].val_rmse_us)
        << "epoch " << e;
  }
  EXPECT_EQ(one.val_predictions_us, three.val_predictions_us);
}

TEST(InferenceEngine, PredictSamplesUsMatchesPredictAll) {
  SampleSet set;
  set.target_scaler.fit_bounds(0.0, 1000.0);
  set.teams_scaler.fit_bounds(1.0, 2.0);
  set.threads_scaler.fit_bounds(1.0, 2.0);
  const auto g = small_graph();
  for (std::size_t i = 0; i < 12; ++i) {
    TrainingSample s;
    const double t = static_cast<double>(i) / 12.0;
    s.graph = encode_graph(g, 40.0 + 400.0 * t);
    s.aux = {static_cast<float>(t), static_cast<float>(1.0 - t)};
    s.runtime_us = 100.0 + 800.0 * t;
    s.target_scaled = set.target_scaler.transform(s.runtime_us);
    set.validation.push_back(std::move(s));
  }
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 9});

  InferenceEngine engine(m);
  const auto engine_preds = engine.predict_samples_us(set.validation, set);
  const auto trainer_preds = predict_all(m, set.validation, set);
  ASSERT_EQ(engine_preds.size(), set.validation.size());
  EXPECT_EQ(engine_preds, trainer_preds);
  for (double p : engine_preds) EXPECT_GE(p, 0.0);  // physical floor
}

}  // namespace
}  // namespace pg::model
