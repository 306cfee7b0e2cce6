// Tests for model checkpointing and the log-runtime target extension.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "dataset/generator.hpp"
#include "dataset/sample_builder.hpp"
#include "model/checkpoint.hpp"
#include "model/trainer.hpp"
#include "sim/platform.hpp"
#include "support/check.hpp"

namespace pg::model {
namespace {

EncodedGraph tiny_graph() {
  EncodedGraph g;
  g.kinds = {0, 1, 2, 3};
  g.literals.assign(4, 0.0f);
  g.relations.num_nodes = 4;
  g.relations.relations.resize(graph::kNumEdgeTypes);
  g.relations.relations[0] = nn::RelationEdges::from_edges(
      {{0, 1, 0.5f}, {1, 2, 1.0f}, {2, 3, 0.25f}}, 4);
  return g;
}

CheckpointScalers demo_scalers() {
  CheckpointScalers scalers;
  scalers.target.fit_bounds(10.0, 1e6);
  scalers.teams.fit_bounds(1.0, 1024.0);
  scalers.threads.fit_bounds(1.0, 256.0);
  scalers.child_weight_scale = 1234.5;
  scalers.log_target = true;  // must survive the round trip (PGCKPT02)
  return scalers;
}

TEST(Checkpoint, RoundTripRestoresPredictions) {
  ModelConfig config{.hidden_dim = 8, .seed = 21};
  ParaGraphModel original(config);
  const auto graph = tiny_graph();
  const std::array<float, 2> aux = {0.25f, 0.75f};
  const double before = original.predict(graph, aux);

  std::stringstream buffer;
  save_checkpoint(buffer, original, demo_scalers());

  ParaGraphModel restored(ModelConfig{.hidden_dim = 8, .seed = 999});
  EXPECT_NE(restored.predict(graph, aux), before);  // different init
  const CheckpointScalers scalers = load_checkpoint(buffer, restored);
  EXPECT_EQ(restored.predict(graph, aux), before);
  EXPECT_DOUBLE_EQ(scalers.target.min_value(), 10.0);
  EXPECT_DOUBLE_EQ(scalers.target.max_value(), 1e6);
  EXPECT_DOUBLE_EQ(scalers.child_weight_scale, 1234.5);
  EXPECT_TRUE(scalers.log_target);
}

TEST(Checkpoint, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "pg_ckpt_test.bin").string();
  ModelConfig config{.hidden_dim = 8, .seed = 4};
  ParaGraphModel original(config);
  save_checkpoint_file(path, original, demo_scalers());

  ParaGraphModel restored(ModelConfig{.hidden_dim = 8, .seed = 5});
  const auto scalers = load_checkpoint_file(path, restored);
  const auto graph = tiny_graph();
  const std::array<float, 2> aux = {0.1f, 0.2f};
  EXPECT_EQ(restored.predict(graph, aux), original.predict(graph, aux));
  EXPECT_DOUBLE_EQ(scalers.teams.max_value(), 1024.0);
  std::filesystem::remove(path);
}

TEST(Checkpoint, RejectsWrongArchitecture) {
  std::stringstream buffer;
  ParaGraphModel small(ModelConfig{.hidden_dim = 8});
  save_checkpoint(buffer, small, demo_scalers());
  ParaGraphModel big(ModelConfig{.hidden_dim = 16});
  EXPECT_THROW(load_checkpoint(buffer, big), InternalError);
}

TEST(Checkpoint, RejectsBadMagic) {
  std::stringstream buffer("definitely-not-a-checkpoint");
  ParaGraphModel m(ModelConfig{.hidden_dim = 8});
  EXPECT_THROW(load_checkpoint(buffer, m), InternalError);
}

TEST(Checkpoint, RejectsTruncated) {
  std::stringstream buffer;
  ParaGraphModel m(ModelConfig{.hidden_dim = 8});
  save_checkpoint(buffer, m, demo_scalers());
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  ParaGraphModel m2(ModelConfig{.hidden_dim = 8});
  EXPECT_THROW(load_checkpoint(truncated, m2), InternalError);
}

TEST(Checkpoint, MissingFileThrows) {
  ParaGraphModel m(ModelConfig{.hidden_dim = 8});
  EXPECT_THROW(load_checkpoint_file("/nonexistent/path.bin", m), InternalError);
}

// -------------------------------------------------------- log target ------

TEST(LogTarget, ToFromTargetRoundTrip) {
  SampleSet set;
  set.log_target = true;
  set.target_scaler.fit_bounds(std::log(10.0), std::log(1e7));
  for (double runtime : {10.0, 123.4, 5e4, 1e7}) {
    EXPECT_NEAR(set.from_target(set.to_target(runtime)), runtime,
                1e-9 * runtime);
  }
}

TEST(LogTarget, LinearSetUnchangedBehaviour) {
  SampleSet set;
  set.log_target = false;
  set.target_scaler.fit_bounds(0.0, 100.0);
  EXPECT_DOUBLE_EQ(set.to_target(50.0), 0.5);
  EXPECT_DOUBLE_EQ(set.from_target(0.5), 50.0);
  EXPECT_DOUBLE_EQ(set.from_target(-1.0), 0.0);  // clamped at physical floor
}

TEST(LogTarget, SampleBuilderFitsLogScaler) {
  dataset::GenerationConfig gen;
  gen.scale = RunScale::kSmoke;
  const auto points = dataset::generate_dataset(sim::summit_v100(), gen);
  dataset::SampleBuildConfig build;
  build.log_target = true;
  const auto set = dataset::build_sample_set(points, build);
  EXPECT_TRUE(set.log_target);
  for (const auto& s : set.train) {
    EXPECT_GE(s.target_scaled, -1e-9);
    EXPECT_LE(s.target_scaled, 1.0 + 1e-9);
    EXPECT_NEAR(set.from_target(s.target_scaled), s.runtime_us,
                1e-6 * s.runtime_us);
  }
}

TEST(LogTarget, TrainingConvergesAndReportsRuntimeDomainRmse) {
  dataset::GenerationConfig gen;
  gen.scale = RunScale::kSmoke;
  const auto points = dataset::generate_dataset(sim::summit_v100(), gen);
  dataset::SampleBuildConfig build;
  build.log_target = true;
  const auto set = dataset::build_sample_set(points, build);
  ParaGraphModel m(ModelConfig{.hidden_dim = 16, .seed = 2});
  TrainConfig train;
  train.epochs = 25;
  const auto result = train_model(m, set, train);
  // RMSE is still reported in microseconds (runtime domain).
  EXPECT_GT(result.final_rmse_us, 0.0);
  EXPECT_LT(result.history.back().train_mse_scaled,
            result.history.front().train_mse_scaled);
  for (double p : result.val_predictions_us) EXPECT_GT(p, 0.0);
}

}  // namespace
}  // namespace pg::model
