// Microbenchmarks for the substrates (google-benchmark): frontend parse,
// graph construction, graph encoding, RGAT forward/backward, matmul, the
// runtime simulator, and a full end-to-end sample encode — plus the
// workspace-substrate comparison (cold arena vs warmed-up arena vs batched
// engine) whose summary is emitted as BENCH_substrate.json so the perf
// trajectory stays machine-readable across PRs (`--json <path>` overrides
// the output location).
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dataset/generator.hpp"
#include "dataset/sample_builder.hpp"
#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "model/encoding.hpp"
#include "model/engine.hpp"
#include "model/paragraph_model.hpp"
#include "sim/kernel_profile.hpp"
#include "sim/runtime_simulator.hpp"
#include "support/rng.hpp"
#include "tensor/init.hpp"
#include "tensor/workspace.hpp"

namespace {

using namespace pg;

const std::string& mm_source() {
  static const std::string source = [] {
    const auto& suite = dataset::benchmark_suite();
    for (const auto& spec : suite)
      if (spec.kernel == "matmul")
        return dataset::instantiate_source(spec, dataset::Variant::kGpuCollapseMem,
                                           spec.default_sizes[3], 256, 256);
    return std::string{};
  }();
  return source;
}

const model::EncodedGraph& mm_encoded() {
  static const model::EncodedGraph enc = [] {
    const auto parsed = frontend::parse_source(mm_source());
    const auto g = graph::build_graph(parsed.root(), {});
    return model::encode_graph(g, g.max_child_weight());
  }();
  return enc;
}

void BM_ParseKernel(benchmark::State& state) {
  for (auto _ : state) {
    auto result = frontend::parse_source(mm_source());
    benchmark::DoNotOptimize(result.root());
  }
}
BENCHMARK(BM_ParseKernel);

void BM_BuildParaGraph(benchmark::State& state) {
  const auto parsed = frontend::parse_source(mm_source());
  graph::BuildOptions options;
  options.parallel_workers = 65536;
  for (auto _ : state) {
    auto g = graph::build_graph(parsed.root(), options);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_BuildParaGraph);

void BM_EncodeGraph(benchmark::State& state) {
  const auto parsed = frontend::parse_source(mm_source());
  graph::BuildOptions options;
  const auto g = graph::build_graph(parsed.root(), options);
  for (auto _ : state) {
    auto enc = model::encode_graph(g, g.max_child_weight());
    benchmark::DoNotOptimize(enc.kinds.data());
  }
}
BENCHMARK(BM_EncodeGraph);

void BM_ProfileKernel(benchmark::State& state) {
  const auto parsed = frontend::parse_source(mm_source());
  for (auto _ : state) {
    auto profile = sim::profile_kernel(parsed.root());
    benchmark::DoNotOptimize(profile.flops);
  }
}
BENCHMARK(BM_ProfileKernel);

void BM_SimulateRuntime(benchmark::State& state) {
  const auto parsed = frontend::parse_source(mm_source());
  const auto profile = sim::profile_kernel(parsed.root());
  const auto platform = sim::summit_v100();
  pg::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::measure_runtime_us(profile, platform, rng));
  }
}
BENCHMARK(BM_SimulateRuntime);

// The pre-refactor allocating behaviour: every predict pays for a cold
// arena (all slots malloc'd anew), the shape of the old per-call
// ForwardState.
void BM_ModelPredictColdWorkspace(benchmark::State& state) {
  const auto& enc = mm_encoded();
  model::ModelConfig config;
  config.hidden_dim = static_cast<std::size_t>(state.range(0));
  model::ParaGraphModel m(config);
  const std::array<float, 2> aux = {0.5f, 0.5f};
  for (auto _ : state) {
    tensor::Workspace ws;
    benchmark::DoNotOptimize(m.predict(enc, aux, ws));
  }
}
BENCHMARK(BM_ModelPredictColdWorkspace)->Arg(16)->Arg(24)->Arg(32);

// Steady state: the warmed-up arena is reused, so predict performs zero
// heap allocations.
void BM_ModelPredictWarmWorkspace(benchmark::State& state) {
  const auto& enc = mm_encoded();
  model::ModelConfig config;
  config.hidden_dim = static_cast<std::size_t>(state.range(0));
  model::ParaGraphModel m(config);
  const std::array<float, 2> aux = {0.5f, 0.5f};
  tensor::Workspace ws;
  (void)m.predict(enc, aux, ws);  // warm-up
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.predict(enc, aux, ws));
  }
}
BENCHMARK(BM_ModelPredictWarmWorkspace)->Arg(16)->Arg(24)->Arg(32);

void BM_EnginePredictBatch(benchmark::State& state) {
  const auto& enc = mm_encoded();
  model::ModelConfig config;
  config.hidden_dim = 24;
  model::ParaGraphModel m(config);
  model::InferenceEngine engine(m);
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::vector<model::EncodedGraph> graphs(batch, enc);
  std::vector<std::array<float, 2>> aux(batch, {0.5f, 0.5f});
  std::vector<double> out(batch);
  engine.predict_batch(graphs, aux, out);  // warm the pool
  for (auto _ : state) {
    engine.predict_batch(graphs, aux, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EnginePredictBatch)->Arg(64)->Arg(256);

void BM_ModelTrainStep(benchmark::State& state) {
  const auto& enc = mm_encoded();
  model::ModelConfig config;
  config.hidden_dim = static_cast<std::size_t>(state.range(0));
  model::ParaGraphModel m(config);
  std::vector<tensor::Matrix> grads;
  for (auto* p : m.parameters()) grads.emplace_back(p->rows(), p->cols());
  const std::array<float, 2> aux = {0.5f, 0.5f};
  tensor::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m.accumulate_gradients(enc, aux, 0.5, 1.0, grads, ws));
  }
}
BENCHMARK(BM_ModelTrainStep)->Arg(16)->Arg(24)->Arg(32);

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Matrix a(n, n), b(n, n);
  pg::Rng rng(3);
  tensor::uniform_init(a, rng, -1, 1);
  tensor::uniform_init(b, rng, -1, 1);
  for (auto _ : state) {
    auto c = tensor::matmul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_DatasetPointEndToEnd(benchmark::State& state) {
  // Instantiate -> parse -> profile -> simulate -> graph -> encode: one
  // complete data point, the unit of dataset-generation cost.
  const auto& suite = dataset::benchmark_suite();
  const auto& spec = suite.front();
  const auto platform = sim::summit_v100();
  pg::Rng rng(7);
  for (auto _ : state) {
    dataset::RawDataPoint point;
    point.variant = "gpu_mem";
    point.num_teams = 128;
    point.num_threads = 128;
    point.source = dataset::instantiate_source(
        spec, dataset::Variant::kGpuMem, spec.default_sizes.front(), 128, 128);
    const auto parsed = frontend::parse_source(point.source);
    const auto profile = sim::profile_kernel(parsed.root());
    const double runtime = sim::measure_runtime_us(profile, platform, rng);
    const auto g =
        dataset::build_point_graph(point, graph::Representation::kParaGraph);
    const auto enc = model::encode_graph(g, g.max_child_weight());
    benchmark::DoNotOptimize(runtime + enc.literals.front());
  }
}
BENCHMARK(BM_DatasetPointEndToEnd);

/// Mean ns/call of `fn` over `iters` calls (after one untimed warm-up).
template <typename Fn>
double mean_ns(std::size_t iters, Fn&& fn) {
  fn();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn();
  const auto stop = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
                 .count()) /
         static_cast<double>(iters);
}

/// The workspace-substrate summary: cold-arena predict (the pre-refactor
/// allocating shape) vs warmed-up predict vs engine batch throughput.
void write_substrate_report(const std::string& path) {
  const auto& enc = mm_encoded();
  model::ModelConfig config;
  config.hidden_dim = 24;
  model::ParaGraphModel m(config);
  const std::array<float, 2> aux = {0.5f, 0.5f};
  constexpr std::size_t kIters = 2000;

  volatile double sink = 0.0;
  const double cold_ns = mean_ns(kIters, [&] {
    tensor::Workspace ws;
    sink = sink + m.predict(enc, aux, ws);
  });

  tensor::Workspace warm;
  const double warm_ns = mean_ns(kIters, [&] {
    sink = sink + m.predict(enc, aux, warm);
  });

  model::InferenceEngine engine(m);
  constexpr std::size_t kBatch = 256;
  std::vector<model::EncodedGraph> graphs(kBatch, enc);
  std::vector<std::array<float, 2>> batch_aux(kBatch, aux);
  std::vector<double> out(kBatch);
  const double batch_ns = mean_ns(32, [&] {
    engine.predict_batch(graphs, batch_aux, out);
  });

  bench::JsonReport report("micro_substrate");
  report.add("graph_nodes", enc.num_nodes());
  report.add("hidden_dim", config.hidden_dim);
  report.add("predict_cold_workspace_ns", cold_ns);
  report.add("predict_warm_workspace_ns", warm_ns);
  report.add("warm_speedup_over_cold", cold_ns / warm_ns);
  report.add("engine_batch256_graphs_per_s", 1e9 * kBatch / batch_ns);
  report.add("warm_workspace_slots", warm.num_slots());
  report.add("warm_workspace_bytes", warm.bytes_reserved());
  report.write(path);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our own --json flag before google-benchmark sees the argv.
  std::string json_path = "BENCH_substrate.json";
  std::vector<char*> args;
  for (int a = 0; a < argc; ++a) {
    if (std::strcmp(argv[a], "--json") == 0 && a + 1 < argc) {
      json_path = argv[a + 1];
      ++a;
      continue;
    }
    args.push_back(argv[a]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_substrate_report(json_path);
  return 0;
}
