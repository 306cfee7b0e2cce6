// Tests for the model module: graph encoding, the assembled ParaGraphModel,
// the trainer, and evaluation metrics.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "dataset/generator.hpp"
#include "dataset/sample_builder.hpp"
#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "io/pgraph_io.hpp"
#include "model/encoding.hpp"
#include "model/engine.hpp"
#include "model/metrics.hpp"
#include "model/paragraph_model.hpp"
#include "model/trainer.hpp"
#include "sim/platform.hpp"
#include "support/check.hpp"

namespace pg::model {
namespace {

graph::ProgramGraph small_graph(graph::Representation representation =
                                    graph::Representation::kParaGraph) {
  auto r = frontend::parse_source(R"(
    void f(void) {
      for (int i = 0; i < 40; i++) {
        double x = 1.0;
      }
    }
  )");
  EXPECT_TRUE(r.ok());
  graph::BuildOptions options;
  options.representation = representation;
  return graph::build_graph(r.root(), options);
}

// -------------------------------------------------------------- encoding ---

TEST(Encoding, OneHotFeatures) {
  const auto g = small_graph();
  const EncodedGraph enc = encode_graph(g, 40.0);
  ASSERT_EQ(enc.num_nodes(), g.num_nodes());
  ASSERT_EQ(enc.literals.size(), g.num_nodes());
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    // One kind byte per node (the one-hot's hot column).
    EXPECT_EQ(enc.kinds[i], static_cast<std::uint8_t>(g.nodes()[i].kind))
        << "node " << i;
    EXPECT_LT(enc.kinds[i], frontend::kNumNodeKinds);
  }
}

TEST(Encoding, LiteralMagnitudeColumn) {
  const auto g = small_graph();  // loop bound literal 40
  const EncodedGraph enc = encode_graph(g, 40.0);
  float bound_feature = 0.0f;
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    if (g.nodes()[i].kind == frontend::NodeKind::kIntegerLiteral &&
        g.nodes()[i].label == "40")
      bound_feature = enc.literals[i];
    if (g.nodes()[i].kind != frontend::NodeKind::kIntegerLiteral) {
      EXPECT_FLOAT_EQ(enc.literals[i], 0.0f);
    }
  }
  EXPECT_NEAR(bound_feature, std::log2(41.0) / 16.0, 1e-6);
}

TEST(Encoding, OneRelationPerEdgeType) {
  const auto enc = encode_graph(small_graph(), 40.0);
  EXPECT_EQ(enc.relations.relations.size(), graph::kNumEdgeTypes);
  EXPECT_EQ(enc.relations.num_nodes, small_graph().num_nodes());
}

TEST(Encoding, ChildGatesAreScaledWeights) {
  const auto g = small_graph();
  const auto enc = encode_graph(g, 40.0);  // max weight is 40
  const auto& child = enc.relations.relations[0];
  float max_gate = 0.0f;
  float min_gate = 2.0f;
  for (const float gate : child.gate) {
    max_gate = std::max(max_gate, gate);
    min_gate = std::min(min_gate, gate);
  }
  EXPECT_FLOAT_EQ(max_gate, 1.0f);           // the loop-body edges
  EXPECT_NEAR(min_gate, 1.0f / 40.0f, 1e-6); // weight-1 edges
}

TEST(Encoding, NonChildGatesAreOne) {
  const auto enc = encode_graph(small_graph(), 40.0);
  for (std::size_t r = 1; r < enc.relations.relations.size(); ++r)
    for (const float gate : enc.relations.relations[r].gate)
      EXPECT_FLOAT_EQ(gate, 1.0f);
}

TEST(Encoding, GatesClampToOne) {
  // Scale smaller than the max weight: gates clamp at 1.
  const auto enc = encode_graph(small_graph(), 10.0);
  for (const float gate : enc.relations.relations[0].gate)
    EXPECT_LE(gate, 1.0f);
}

TEST(Encoding, RawAstEncodingHasUnitGates) {
  const auto enc =
      encode_graph(small_graph(graph::Representation::kRawAst), 1.0);
  for (const float gate : enc.relations.relations[0].gate)
    EXPECT_FLOAT_EQ(gate, 1.0f);
  // No other relations.
  for (std::size_t r = 1; r < enc.relations.relations.size(); ++r)
    EXPECT_TRUE(enc.relations.relations[r].empty());
}

TEST(Encoding, BadScaleThrows) {
  EXPECT_THROW(encode_graph(small_graph(), 0.0), InternalError);
}

// ----------------------------------------------------------------- model ---

EncodedGraph encoded_small() { return encode_graph(small_graph(), 40.0); }

TEST(ParaGraphModel, PredictIsDeterministic) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 3});
  const auto enc = encoded_small();
  const std::array<float, 2> aux = {0.5f, 0.5f};
  EXPECT_EQ(m.predict(enc, aux), m.predict(enc, aux));
}

TEST(ParaGraphModel, SameSeedSameModel) {
  ParaGraphModel a(ModelConfig{.hidden_dim = 8, .seed = 5});
  ParaGraphModel b(ModelConfig{.hidden_dim = 8, .seed = 5});
  const auto enc = encoded_small();
  const std::array<float, 2> aux = {0.1f, 0.9f};
  EXPECT_EQ(a.predict(enc, aux), b.predict(enc, aux));
}

TEST(ParaGraphModel, DifferentSeedDifferentModel) {
  ParaGraphModel a(ModelConfig{.hidden_dim = 8, .seed = 5});
  ParaGraphModel b(ModelConfig{.hidden_dim = 8, .seed = 6});
  const auto enc = encoded_small();
  const std::array<float, 2> aux = {0.1f, 0.9f};
  EXPECT_NE(a.predict(enc, aux), b.predict(enc, aux));
}

TEST(ParaGraphModel, AuxFeaturesInfluencePrediction) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 7});
  const auto enc = encoded_small();
  const double p1 = m.predict(enc, std::array<float, 2>{0.0f, 0.0f});
  const double p2 = m.predict(enc, std::array<float, 2>{1.0f, 1.0f});
  EXPECT_NE(p1, p2);
}

TEST(ParaGraphModel, EdgeWeightsInfluencePrediction) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 7});
  const auto g = small_graph();
  const auto enc_a = encode_graph(g, 40.0);
  const auto enc_b = encode_graph(g, 4000.0);  // much smaller gates
  const std::array<float, 2> aux = {0.5f, 0.5f};
  EXPECT_NE(m.predict(enc_a, aux), m.predict(enc_b, aux));
}

TEST(ParaGraphModel, WrongAuxSizeThrows) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8});
  const auto enc = encoded_small();
  const std::array<float, 3> bad = {0.0f, 0.0f, 0.0f};
  EXPECT_THROW((void)m.predict(enc, bad), InternalError);
}

TEST(ParaGraphModel, ParameterCountMatchesLayout) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8});
  // 3 convs x (3 per relation x 8 relations + self + bias) + 4 linears x 2.
  EXPECT_EQ(m.parameters().size(), 3u * (3u * 8u + 2u) + 8u);
  EXPECT_EQ(m.parameters().size(), m.num_params());
}

TEST(ParaGraphModel, GradientAccumulationScales) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 1});
  const auto enc = encoded_small();
  const std::array<float, 2> aux = {0.5f, 0.5f};
  std::vector<tensor::Matrix> g1, g2;
  for (auto* p : m.parameters()) {
    g1.emplace_back(p->rows(), p->cols());
    g2.emplace_back(p->rows(), p->cols());
  }
  (void)m.accumulate_gradients(enc, aux, 0.7, 1.0, g1);
  (void)m.accumulate_gradients(enc, aux, 0.7, 2.0, g2);
  for (std::size_t p = 0; p < g1.size(); ++p)
    for (std::size_t i = 0; i < g1[p].size(); ++i)
      EXPECT_NEAR(g2[p].data()[i], 2.0f * g1[p].data()[i],
                  1e-5f + 1e-3f * std::abs(g1[p].data()[i]));
}

// --------------------------------------------------------------- trainer ---

SampleSet synthetic_sample_set(std::size_t train_n, std::size_t val_n) {
  // Targets correlate with the aux features and weight scale so the signal
  // is learnable.
  SampleSet set;
  set.target_scaler.fit_bounds(0.0, 1000.0);
  set.teams_scaler.fit_bounds(1.0, 2.0);
  set.threads_scaler.fit_bounds(1.0, 2.0);
  const auto g = small_graph();
  auto make = [&](std::size_t i, std::size_t n) {
    TrainingSample s;
    const double t = static_cast<double>(i) / static_cast<double>(n);
    s.graph = encode_graph(g, 40.0 + 400.0 * t);
    s.aux = {static_cast<float>(t), static_cast<float>(1.0 - t)};
    s.runtime_us = 100.0 + 800.0 * t;
    s.target_scaled = set.target_scaler.transform(s.runtime_us);
    s.app_id = static_cast<std::int32_t>(i % 3);
    s.app_name = "app" + std::to_string(i % 3);
    return s;
  };
  for (std::size_t i = 0; i < train_n; ++i) set.train.push_back(make(i, train_n));
  for (std::size_t i = 0; i < val_n; ++i)
    set.validation.push_back(make(i + 1, val_n + 2));
  return set;
}

TEST(Trainer, LossDecreasesOnLearnableSignal) {
  auto set = synthetic_sample_set(64, 16);
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 2});
  TrainConfig config;
  config.epochs = 25;
  config.batch_size = 16;
  const TrainResult result = train_model(m, set, config);
  ASSERT_EQ(result.history.size(), 25u);
  EXPECT_LT(result.history.back().train_mse_scaled,
            result.history.front().train_mse_scaled * 0.5);
}

TEST(Trainer, ValidationPredictionsAligned) {
  auto set = synthetic_sample_set(32, 8);
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 2});
  TrainConfig config;
  config.epochs = 3;
  const TrainResult result = train_model(m, set, config);
  EXPECT_EQ(result.val_predictions_us.size(), set.validation.size());
  for (double p : result.val_predictions_us) EXPECT_GE(p, 0.0);
}

TEST(Trainer, EpochCallbackFires) {
  auto set = synthetic_sample_set(16, 4);
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 2});
  TrainConfig config;
  config.epochs = 5;
  int calls = 0;
  config.on_epoch = [&](int, double, double) { ++calls; };
  (void)train_model(m, set, config);
  EXPECT_EQ(calls, 5);
}

TEST(Trainer, PredictAllClampsAtZero) {
  auto set = synthetic_sample_set(8, 4);
  ParaGraphModel m(ModelConfig{.hidden_dim = 8, .seed = 2});
  const auto preds = predict_all(m, set.validation, set);
  for (double p : preds) EXPECT_GE(p, 0.0);  // no negative runtimes
}

/// FNV-1a 64 over the raw bytes of every parameter, in parameters() order.
std::uint64_t parameter_hash(const ParaGraphModel& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const tensor::Matrix* p : m.parameters()) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(p->data().data());
    for (std::size_t i = 0; i < p->size() * sizeof(float); ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(Trainer, TrainedParametersMatchRecordedHash) {
  // Training pin: the exact bytes a small fixed-seed run produces. Any
  // change to the forward/backward FP sequence, the chunking or the Adam
  // update moves these hashes; a pure speed change must not. Hidden 8 and
  // 24 take the templated-width kernels, 10 the runtime-width ones, and
  // each run mixes two graph shapes (so relations differ per chunk).
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
  const auto nested_graph = graph::build_graph(nested.root(), {});
  const struct {
    std::size_t hidden;
    std::uint64_t hash;
  } pins[] = {
      {8, 0x2182c63541832209ULL},
      {10, 0xaa912226aa854196ULL},
      {24, 0xf49fef877c839a13ULL},
  };
  for (const auto& pin : pins) {
    auto set = synthetic_sample_set(40, 4);
    for (std::size_t i = 0; i < set.train.size(); i += 2)
      set.train[i].graph = encode_graph(nested_graph, 10.0 + 5.0 * i);
    ParaGraphModel m(ModelConfig{.hidden_dim = pin.hidden, .seed = 17});
    TrainConfig config;
    config.epochs = 3;
    config.batch_size = 16;
    (void)train_model(m, set, config);
    EXPECT_EQ(parameter_hash(m), pin.hash)
        << "hidden " << pin.hidden << ": 0x" << std::hex << parameter_hash(m);
  }
}

TEST(Trainer, SingleEdgeRelationsKeepTheirAttentionVectors) {
  // Where every destination of a relation has one in-edge, its softmax is
  // 1 and no gradient reaches its a_src/a_dst. After training on the smoke
  // V100 corpus, every relation that is single-edge in every training
  // graph keeps the vectors of a fresh same-seed model bit for bit, while
  // Ref's (the relation with fan-in) move in the second and third layers.
  // The first layer's Ref sources are all DeclRefExpr rows with the same
  // one-hot features, so their logits tie within a group and its Ref
  // vectors may get no gradient either.
  dataset::GenerationConfig generation;
  generation.scale = RunScale::kSmoke;
  const SampleSet set = dataset::build_sample_set(
      dataset::generate_dataset(sim::summit_v100(), generation), {});
  std::vector<bool> single_edge(graph::kNumEdgeTypes, true);
  for (const TrainingSample& s : set.train)
    for (std::size_t r = 0; r < graph::kNumEdgeTypes; ++r)
      if (!s.graph.relations.relations[r].all_single_edge())
        single_edge[r] = false;
  const auto ref = static_cast<std::size_t>(graph::EdgeType::kRef);
  ASSERT_FALSE(single_edge[ref]);

  const ModelConfig model_config{.hidden_dim = 8, .seed = 5};
  ParaGraphModel trained(model_config);
  const ParaGraphModel fresh(model_config);
  TrainConfig config;
  config.epochs = 2;
  (void)train_model(trained, set, config);

  const auto before = fresh.parameters();
  const auto after = std::as_const(trained).parameters();
  const std::size_t conv_params = 3 * graph::kNumEdgeTypes + 2;
  const auto same_bytes = [](const tensor::Matrix* a,
                             const tensor::Matrix* b) {
    return std::memcmp(a->data().data(), b->data().data(),
                       a->size() * sizeof(float)) == 0;
  };
  std::size_t frozen = 0;
  for (std::size_t layer = 0; layer < 3; ++layer) {
    for (std::size_t r = 0; r < graph::kNumEdgeTypes; ++r) {
      for (const std::size_t a : {3 * r + 1, 3 * r + 2}) {
        const std::size_t p = layer * conv_params + a;
        if (single_edge[r]) {
          EXPECT_TRUE(same_bytes(before[p], after[p]))
              << "layer " << layer << " relation " << r;
          ++frozen;
        } else if (r == ref && layer > 0) {
          EXPECT_FALSE(same_bytes(before[p], after[p]))
              << "layer " << layer << " Ref";
        }
      }
    }
  }
  EXPECT_GT(frozen, 0u);
}

TEST(Model, PredictionsMatchRecordedHash) {
  // Forward pin: the exact bytes predict_batch and embed_batch return for a
  // fixed-seed model over the four golden .psample files plus two synthetic
  // graph shapes at two weight scales each. The values were recorded before
  // the attention dots and the one-hot projection moved onto the kernel
  // table; any change to the forward FP sequence moves them, a pure speed
  // change must not. Hidden 8 and 24 take the templated-width kernels, 10
  // the runtime-width ones.
  std::vector<EncodedGraph> graphs;
  std::vector<std::array<float, 2>> aux;
  for (const char* name : {"matvec_cpu", "matmul_gpu_collapse_mem",
                           "corr_gpu_mem", "gauss_seidel_cpu_collapse"}) {
    TrainingSample s = io::read_sample_file(std::string(PG_GOLDEN_DIR) + "/" +
                                            name + ".psample");
    graphs.push_back(std::move(s.graph));
    aux.push_back(s.aux);
  }
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
  const auto nested_graph = graph::build_graph(nested.root(), {});
  const auto flat_graph = small_graph();
  for (const double scale : {40.0, 700.0}) {
    graphs.push_back(encode_graph(flat_graph, scale));
    aux.push_back({0.25f, 0.75f});
    graphs.push_back(encode_graph(nested_graph, scale));
    aux.push_back({0.9f, 0.1f});
  }

  const struct {
    std::size_t hidden;
    std::uint64_t hash;
  } pins[] = {
      {8, 0x6a0b824c2c8c5701ULL},
      {10, 0x28e2e103ed3613eaULL},
      {24, 0xdd6a6ada111749deULL},
  };
  for (const auto& pin : pins) {
    ParaGraphModel m(ModelConfig{.hidden_dim = pin.hidden, .seed = 29});
    InferenceEngine engine(m);
    std::vector<double> preds(graphs.size());
    engine.predict_batch(graphs, aux, preds);
    tensor::Matrix pooled;
    engine.embed_batch(graphs, pooled);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const void* data, std::size_t bytes) {
      const auto* p = static_cast<const unsigned char*>(data);
      for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
      }
    };
    mix(preds.data(), preds.size() * sizeof(double));
    mix(pooled.data().data(), pooled.size() * sizeof(float));
    EXPECT_EQ(h, pin.hash) << "hidden " << pin.hidden << ": 0x" << std::hex
                           << h;
  }
}

TEST(Trainer, EmptyTrainSetThrows) {
  SampleSet set;
  set.target_scaler.fit_bounds(0, 1);
  ParaGraphModel m(ModelConfig{.hidden_dim = 8});
  EXPECT_THROW(train_model(m, set, {}), InternalError);
}

// --------------------------------------------------------------- metrics ---

std::vector<TrainingSample> metric_samples() {
  std::vector<TrainingSample> samples;
  auto add = [&](double runtime_us, const std::string& app) {
    TrainingSample s;
    s.runtime_us = runtime_us;
    s.app_name = app;
    samples.push_back(std::move(s));
  };
  add(1e6, "A");    // bin 0
  add(5e6, "A");    // bin 0
  add(15e6, "B");   // bin 1
  add(150e6, "B");  // bin 10
  return samples;
}

TEST(Metrics, BinnedRelativeErrorGroupsCorrectly) {
  const auto samples = metric_samples();
  const std::vector<double> preds = {1e6, 5e6, 15e6, 150e6};  // perfect
  const auto bins = binned_relative_error(samples, preds);
  ASSERT_EQ(bins.size(), 3u);  // bins 0, 1, 10 populated
  EXPECT_EQ(bins[0].bin, 0u);
  EXPECT_EQ(bins[0].count, 2u);
  EXPECT_EQ(bins[1].bin, 1u);
  EXPECT_EQ(bins[2].bin, 10u);
  for (const auto& b : bins) EXPECT_DOUBLE_EQ(b.relative_error, 0.0);
}

TEST(Metrics, BinnedErrorNormalisesByRange) {
  const auto samples = metric_samples();
  // Error of 14.9e6 on the first sample; range = 149e6.
  const std::vector<double> preds = {15.9e6, 5e6, 15e6, 150e6};
  const auto bins = binned_relative_error(samples, preds);
  EXPECT_NEAR(bins[0].relative_error, (14.9e6 / 2.0) / 149e6, 1e-9);
}

TEST(Metrics, PerAppErrorSplitsByApp) {
  const auto samples = metric_samples();
  const std::vector<double> preds = {1e6, 5e6, 15e6, 1e6};  // app B off
  const auto apps = per_app_error(samples, preds);
  ASSERT_EQ(apps.size(), 2u);
  EXPECT_EQ(apps[0].app_name, "A");
  EXPECT_DOUBLE_EQ(apps[0].error_rate, 0.0);
  EXPECT_EQ(apps[1].app_name, "B");
  EXPECT_GT(apps[1].error_rate, 0.0);
}

TEST(Metrics, BinLabels) {
  EXPECT_EQ(bin_label(0), "0-10");
  EXPECT_EQ(bin_label(9), "90-100");
  EXPECT_EQ(bin_label(10), "100 <");
}

TEST(Metrics, SizeMismatchThrows) {
  const auto samples = metric_samples();
  const std::vector<double> bad = {1.0};
  EXPECT_THROW(binned_relative_error(samples, bad), InternalError);
  EXPECT_THROW(per_app_error(samples, bad), InternalError);
}

}  // namespace
}  // namespace pg::model
