// variant_explorer: show what the variant generator produces for a kernel
// and how the simulated runtime responds to the transformation and launch
// configuration — the paper's motivating "which variant should I pick?"
// question, answered here with the simulator's ground truth.
//
// With --predict, additionally trains a smoke-scale ParaGraph model per
// device class and appends the model's batched predictions (via the
// InferenceEngine) next to the simulator's ground truth.
//
// Usage: ./variant_explorer [kernel-name] [--predict]   (default: matmul)
//        ./variant_explorer --list
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "dataset/corpus_cache.hpp"
#include "dataset/generator.hpp"
#include "dataset/kernel_spec.hpp"
#include "dataset/sample_builder.hpp"
#include "dataset/variants.hpp"
#include "frontend/parser.hpp"
#include "model/engine.hpp"
#include "model/trainer.hpp"
#include "sim/kernel_profile.hpp"
#include "sim/platform.hpp"
#include "sim/runtime_simulator.hpp"
#include "support/env.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace pg;

  std::string kernel_name = "matmul";
  bool with_predictions = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--list") == 0) {
      std::printf("Available kernels (paper Table I):\n");
      for (const auto& spec : dataset::benchmark_suite())
        std::printf("  %-16s (%s, %s)\n", spec.kernel.c_str(), spec.app.c_str(),
                    spec.domain.c_str());
      return 0;
    }
    if (std::strcmp(argv[a], "--predict") == 0) {
      with_predictions = true;
      continue;
    }
    kernel_name = argv[a];
  }

  const dataset::KernelSpec* spec = nullptr;
  for (const auto& s : dataset::benchmark_suite())
    if (s.kernel == kernel_name) spec = &s;
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown kernel '%s' (try --list)\n",
                 kernel_name.c_str());
    return 1;
  }

  const dataset::SizePoint sizes = spec->default_sizes[spec->default_sizes.size() / 2];
  std::string size_str;
  for (const auto& [k, v] : sizes) size_str += k + "=" + std::to_string(v) + " ";
  std::printf("Kernel %s (%s), sizes: %s\n\n", spec->kernel.c_str(),
              spec->app.c_str(), size_str.c_str());

  // Show one instantiated source.
  std::printf("== gpu_mem variant source ==\n%s\n",
              spec->collapsible
                  ? dataset::instantiate_source(*spec, dataset::Variant::kGpuCollapseMem,
                                                sizes, 256, 256)
                        .c_str()
                  : dataset::instantiate_source(*spec, dataset::Variant::kGpuMem,
                                                sizes, 256, 256)
                        .c_str());

  // With --predict: train one smoke-scale model per device class, then rank
  // every variant row with a single batched engine call per model.
  std::shared_ptr<model::ParaGraphModel> cpu_model, gpu_model;
  std::shared_ptr<model::SampleSet> cpu_set, gpu_set;
  if (with_predictions) {
    const sim::Platform cpu_platform = sim::summit_power9();
    const sim::Platform gpu_platform = sim::summit_v100();
    std::printf("Training smoke-scale ParaGraph models for %s and %s ...\n\n",
                cpu_platform.name.c_str(), gpu_platform.name.c_str());
    dataset::GenerationConfig gen;
    gen.scale = RunScale::kSmoke;
    model::TrainConfig train_config;
    train_config.epochs = 30;
    auto train_for = [&](const sim::Platform& platform) {
      const auto points = dataset::generate_dataset(platform, gen);
      dataset::SampleBuildConfig build;
      build.log_target = true;
      // Load-from-corpus path (see dataset/corpus_cache.hpp).
      dataset::CorpusKey key;
      key.platform_name = platform.name;
      key.scale = gen.scale;
      key.seed = gen.seed;
      key.log_target = build.log_target;
      auto set = std::make_shared<model::SampleSet>(
          dataset::load_or_build_sample_set(
              env_string("PARAGRAPH_CORPUS_DIR", ""), key, points, build));
      auto m = std::make_shared<model::ParaGraphModel>(model::ModelConfig{});
      (void)model::train_model(*m, *set, train_config);
      return std::pair{m, set};
    };
    std::tie(cpu_model, cpu_set) = train_for(cpu_platform);
    std::tie(gpu_model, gpu_set) = train_for(gpu_platform);
  }

  // Sweep variants across the four platforms.
  std::vector<std::string> header = {"Variant", "Config", "POWER9 (ms)",
                                     "V100 (ms)", "EPYC (ms)", "MI50 (ms)"};
  if (with_predictions) {
    header.push_back("P9 pred (ms)");
    header.push_back("V100 pred (ms)");
  }
  TextTable table(header);
  const auto platforms = sim::all_platforms();
  sim::SimOptions noise_free;
  noise_free.noise_sigma = 0.0;

  struct Row {
    bool gpu = false;
    std::vector<std::string> cells;
  };
  std::vector<Row> rows;
  std::vector<model::EncodedGraph> cpu_graphs, gpu_graphs;
  std::vector<std::array<float, 2>> cpu_aux, gpu_aux;

  struct Config { std::int64_t teams, threads; };
  for (const auto variant :
       {dataset::Variant::kCpu, dataset::Variant::kCpuCollapse,
        dataset::Variant::kGpu, dataset::Variant::kGpuCollapse,
        dataset::Variant::kGpuMem, dataset::Variant::kGpuCollapseMem}) {
    if (dataset::variant_has_collapse(variant) && !spec->collapsible) continue;
    const bool gpu = dataset::variant_is_gpu(variant);
    const Config config = gpu ? Config{256, 256} : Config{1, 16};

    const std::string source = dataset::instantiate_source(
        *spec, variant, sizes, config.teams, config.threads);
    const auto parsed = frontend::parse_source(source);
    if (!parsed.ok()) {
      std::fprintf(stderr, "internal error: variant failed to parse\n");
      return 1;
    }
    const sim::KernelProfile profile = sim::profile_kernel(parsed.root());

    Row row;
    row.gpu = gpu;
    row.cells.push_back(std::string(dataset::variant_name(variant)));
    row.cells.push_back(gpu ? "teams=256 thr=256" : "threads=16");
    for (const auto& platform : platforms) {
      const bool platform_gpu = platform.kind == sim::DeviceKind::kGpu;
      if (platform_gpu != gpu) {
        row.cells.push_back("-");
        continue;
      }
      const double us = sim::simulate_runtime_us(profile, platform, noise_free);
      row.cells.push_back(format_double(us / 1e3, 4));
    }

    if (with_predictions) {
      const auto& set = gpu ? *gpu_set : *cpu_set;
      dataset::RawDataPoint point;
      point.variant = std::string(dataset::variant_name(variant));
      point.num_teams = config.teams;
      point.num_threads = config.threads;
      const auto pgraph = graph::build_graph(
          parsed.root(),
          dataset::point_build_options(point, graph::Representation::kParaGraph));
      auto& graphs = gpu ? gpu_graphs : cpu_graphs;
      auto& aux = gpu ? gpu_aux : cpu_aux;
      graphs.push_back(model::encode_graph(pgraph, set.child_weight_scale));
      aux.push_back(set.aux_for(config.teams, config.threads));
    }
    rows.push_back(std::move(row));
  }

  if (with_predictions) {
    model::InferenceEngine cpu_engine(*cpu_model);
    model::InferenceEngine gpu_engine(*gpu_model);
    std::vector<double> cpu_pred(cpu_graphs.size()), gpu_pred(gpu_graphs.size());
    cpu_engine.predict_batch(cpu_graphs, cpu_aux, cpu_pred);
    gpu_engine.predict_batch(gpu_graphs, gpu_aux, gpu_pred);
    std::size_t cpu_i = 0, gpu_i = 0;
    for (Row& row : rows) {
      const double us = row.gpu ? gpu_set->from_target(gpu_pred[gpu_i++])
                                : cpu_set->from_target(cpu_pred[cpu_i++]);
      row.cells.push_back(row.gpu ? "-" : format_double(us / 1e3, 4));
      row.cells.push_back(row.gpu ? format_double(us / 1e3, 4) : "-");
    }
  }

  for (const Row& row : rows) table.add_row(row.cells);
  std::printf("== Simulated runtime by variant ==\n%s", table.render().c_str());
  std::printf("\n(cpu variants run on the CPU platforms, gpu variants on the "
              "GPUs; '-' = not applicable)\n");
  return 0;
}
