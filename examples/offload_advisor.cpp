// offload_advisor: the end-to-end use case the paper builds ParaGraph for —
// an OpenMP-Advisor-style tool that picks the best variant for a kernel by
// *predicting* each variant's runtime with the trained GNN (no execution of
// the candidate variants at decision time; ParaGraph is an offline model).
//
//   1. Train a ParaGraph model per device on simulated measurements.
//   2. For a target kernel, enumerate the applicable variants.
//   3. Predict every variant's runtime from its graph alone, batched
//      through the InferenceEngine (one call per device model).
//   4. Recommend the fastest (and show the simulator's ground truth).
//
// Usage: ./offload_advisor [kernel-name] [--similar K] (default: matmul)
//
// --similar K additionally embeds the winner device's candidates with its
// model and reports the K nearest the recommendation in embedding space
// (an exact scan over the pooled embeddings) — "what else does the model
// consider structurally close to the winner".
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "dataset/corpus_cache.hpp"
#include "dataset/generator.hpp"
#include "dataset/sample_builder.hpp"
#include "frontend/parser.hpp"
#include "model/engine.hpp"
#include "model/trainer.hpp"
#include "support/check.hpp"
#include "support/env.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace pg;

  std::string kernel_name = "matmul";
  std::size_t similar_k = 0;
  for (int a = 1; a < argc; ++a) {
    if (std::string(argv[a]) == "--similar" && a + 1 < argc)
      similar_k =
          static_cast<std::size_t>(int_in_range("--similar", argv[++a], 0, 0, 1000));
    else
      kernel_name = argv[a];
  }
  const dataset::KernelSpec* spec = nullptr;
  for (const auto& s : dataset::benchmark_suite())
    if (s.kernel == kernel_name) spec = &s;
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown kernel '%s'\n", kernel_name.c_str());
    return 1;
  }
  const dataset::SizePoint sizes = spec->default_sizes[spec->default_sizes.size() / 2];

  // Candidate executions: every applicable variant on CPU and GPU of the
  // Summit-like cluster.
  struct Candidate {
    const sim::Platform platform;
    dataset::Variant variant;
    std::int64_t teams, threads;
  };
  std::vector<Candidate> candidates;
  const sim::Platform cpu = sim::summit_power9();
  const sim::Platform gpu = sim::summit_v100();
  for (auto v : dataset::applicable_variants(*spec, /*gpu_platform=*/false))
    candidates.push_back({cpu, v, 1, cpu.cores});
  for (auto v : dataset::applicable_variants(*spec, /*gpu_platform=*/true))
    candidates.push_back({gpu, v, 256, 256});

  // Train one model per device (smoke scale: this is a demo, not the bench).
  // The advisor needs to *rank* candidates spanning orders of magnitude, so
  // it trains on log-runtime targets (see bench_advisor_selection for the
  // quantitative comparison of the two target domains).
  std::printf("Training ParaGraph models for %s and %s ...\n\n",
              cpu.name.c_str(), gpu.name.c_str());
  dataset::GenerationConfig gen;
  gen.scale = RunScale::kSmoke;
  model::TrainConfig train_config;
  train_config.epochs = 60;

  auto train_for = [&](const sim::Platform& platform) {
    const auto points = dataset::generate_dataset(platform, gen);
    dataset::SampleBuildConfig build;
    build.log_target = true;
    // Load-from-corpus path: with PARAGRAPH_CORPUS_DIR set, later runs skip
    // the per-point parse/build/encode entirely.
    dataset::CorpusKey key;
    key.platform_name = platform.name;
    key.scale = gen.scale;
    key.seed = gen.seed;
    key.log_target = build.log_target;
    auto set = std::make_shared<model::SampleSet>(
        dataset::load_or_build_sample_set(env_string("PARAGRAPH_CORPUS_DIR", ""),
                                          key, points, build));
    auto m = std::make_shared<model::ParaGraphModel>(model::ModelConfig{});
    (void)model::train_model(*m, *set, train_config);
    return std::pair{m, set};
  };
  auto [cpu_model, cpu_set] = train_for(cpu);
  auto [gpu_model, gpu_set] = train_for(gpu);

  // Encode every candidate, then rank the whole slate with one batched
  // engine call per device — the serving shape the engine is built for.
  sim::SimOptions noise_free;
  noise_free.noise_sigma = 0.0;

  std::vector<model::EncodedGraph> cpu_graphs, gpu_graphs;
  std::vector<std::array<float, 2>> cpu_aux, gpu_aux;
  std::vector<double> simulated(candidates.size());
  std::vector<std::size_t> batch_index(candidates.size());

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    const bool on_gpu = c.platform.kind == sim::DeviceKind::kGpu;
    const auto& set = on_gpu ? *gpu_set : *cpu_set;

    dataset::RawDataPoint point;
    point.variant = std::string(dataset::variant_name(c.variant));
    point.num_teams = c.teams;
    point.num_threads = c.threads;
    point.source =
        dataset::instantiate_source(*spec, c.variant, sizes, c.teams, c.threads);

    // One parse feeds both the graph and the simulator's profile.
    const auto parsed = frontend::parse_source(point.source);
    check(parsed.ok(), "offload_advisor: candidate source failed to parse");
    const auto pgraph = graph::build_graph(
        parsed.root(),
        dataset::point_build_options(point, graph::Representation::kParaGraph));
    auto& graphs = on_gpu ? gpu_graphs : cpu_graphs;
    auto& aux = on_gpu ? gpu_aux : cpu_aux;
    batch_index[i] = graphs.size();
    graphs.push_back(model::encode_graph(pgraph, set.child_weight_scale));
    aux.push_back(set.aux_for(c.teams, c.threads));

    const auto profile = sim::profile_kernel(parsed.root());
    simulated[i] = sim::simulate_runtime_us(profile, c.platform, noise_free);
  }

  model::InferenceEngine cpu_engine(*cpu_model);
  model::InferenceEngine gpu_engine(*gpu_model);
  std::vector<double> cpu_pred(cpu_graphs.size()), gpu_pred(gpu_graphs.size());
  cpu_engine.predict_batch(cpu_graphs, cpu_aux, cpu_pred);
  gpu_engine.predict_batch(gpu_graphs, gpu_aux, gpu_pred);

  TextTable table({"Device", "Variant", "Predicted (ms)", "Simulated (ms)"});
  double best_pred = 1e300;
  std::string best_label;
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    const bool on_gpu = c.platform.kind == sim::DeviceKind::kGpu;
    const auto& set = on_gpu ? *gpu_set : *cpu_set;
    const double scaled =
        on_gpu ? gpu_pred[batch_index[i]] : cpu_pred[batch_index[i]];
    const double predicted_us = set.from_target(scaled);

    const std::string label =
        c.platform.name + " / " + std::string(dataset::variant_name(c.variant));
    if (predicted_us < best_pred) {
      best_pred = predicted_us;
      best_label = label;
      best_i = i;
    }
    table.add_row({c.platform.name, std::string(dataset::variant_name(c.variant)),
                   format_double(predicted_us / 1e3, 4),
                   format_double(simulated[i] / 1e3, 4)});
  }

  std::printf("== Advisor: %s, sizes mid-sweep ==\n%s\n", kernel_name.c_str(),
              table.render().c_str());
  std::printf("Recommendation: %s (predicted %.3f ms)\n", best_label.c_str(),
              best_pred / 1e3);

  if (similar_k > 0) {
    // Embeddings from different device models live in different spaces, so
    // the similarity slate is the winner's device only.
    const bool on_gpu = candidates[best_i].platform.kind == sim::DeviceKind::kGpu;
    auto& engine = on_gpu ? gpu_engine : cpu_engine;
    const auto& graphs = on_gpu ? gpu_graphs : cpu_graphs;
    std::vector<std::size_t> owner;  // device batch position -> candidate
    owner.resize(graphs.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const bool g = candidates[i].platform.kind == sim::DeviceKind::kGpu;
      if (g == on_gpu) owner[batch_index[i]] = i;
    }

    tensor::Matrix embeddings;
    engine.embed_batch(graphs, embeddings);
    // Squared L2 to the winner, accumulated in double in index order and
    // narrowed to float; ranked by (distance, row).
    const auto winner = embeddings.row_span(batch_index[best_i]);
    std::vector<std::pair<float, std::size_t>> ranked;
    for (std::size_t r = 0; r < embeddings.rows(); ++r) {
      if (r == batch_index[best_i]) continue;
      const auto row = embeddings.row_span(r);
      double acc = 0.0;
      for (std::size_t j = 0; j < row.size(); ++j) {
        const double d = static_cast<double>(winner[j]) - row[j];
        acc += d * d;
      }
      ranked.emplace_back(static_cast<float>(acc), r);
    }
    std::sort(ranked.begin(), ranked.end());
    ranked.resize(std::min(ranked.size(), similar_k));

    std::printf("\n%zu most similar candidates (embedding space, %s):\n",
                similar_k, candidates[best_i].platform.name.c_str());
    for (const auto& [distance, r] : ranked)
      std::printf("  %-24s L2^2 = %.6g\n",
                  std::string(dataset::variant_name(candidates[owner[r]].variant))
                      .c_str(),
                  static_cast<double>(distance));
  }
  return 0;
}
