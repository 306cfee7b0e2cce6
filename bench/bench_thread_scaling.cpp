// Thread-scaling bench for the fused InferenceEngine: sweeps OpenMP thread
// counts (1..omp_get_max_threads()) x graph-size skew (uniform | zipf |
// one_giant) over synthetic encoded graphs, and writes BENCH_scaling.json (flags: --json PATH, --threads N to
// cap the sweep, --emit-fixture for the quick CI smoke that still gates on
// parity). PARAGRAPH_SCALE=smoke shrinks batches and iteration counts.
//
// Every configuration's predictions are compared bitwise against the
// 1-thread reference for its mix — the bench doubles as an end-to-end
// determinism gate across thread counts (the unit-level version lives in
// tests/schedule_test.cpp). Any mismatch makes
// the bench exit non-zero.
//
// Headline derived metrics:
//   * uniform_efficiency_at_cores — batch-256 throughput at the machine's
//     core count divided by (cores x 1-thread throughput); 1.0 = linear.
//   * one_giant_speedup — 1-thread time / best time for a batch dominated
//     by a single ~10k-node graph, i.e. what intra-batch parallelism buys
//     where chunk fan-out alone cannot help.
#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "model/encoding.hpp"
#include "model/engine.hpp"
#include "model/paragraph_model.hpp"
#include "model/schedule.hpp"
#include "nn/relational_graph.hpp"

namespace {

using pg::model::EncodedGraph;
using pg::model::InferenceEngine;
using pg::model::ModelConfig;
using pg::model::ParaGraphModel;

/// Deterministic 64-bit mix (splitmix64) — the bench must produce the same
/// graphs on every run and machine.
std::uint64_t mix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A synthetic encoded graph: one-hot node features plus literal column,
/// and per-relation edges with realistic shape — a tree-like "child"
/// relation covering every node, a sequential chain, and sparse random
/// relations — so the cost model sees corpus-like node/edge ratios.
EncodedGraph make_graph(std::size_t nodes, std::uint64_t seed) {
  EncodedGraph g;
  std::uint64_t rng = seed;
  for (std::size_t i = 0; i < nodes; ++i) {
    g.kinds.push_back(static_cast<std::uint8_t>(
        mix64(rng) % pg::frontend::kNumNodeKinds));
    g.literals.push_back(static_cast<float>((mix64(rng) % 7)) * 0.25f);
  }

  const std::size_t num_relations = ModelConfig{}.num_relations;
  g.relations.num_nodes = nodes;
  g.relations.relations.resize(num_relations);
  std::vector<pg::nn::RelEdge> edges;
  for (std::size_t r = 0; r < num_relations; ++r) {
    edges.clear();
    if (r == 0) {
      // Tree: every node but the root points at a parent (gated).
      for (std::uint32_t i = 1; i < nodes; ++i)
        edges.push_back({i, static_cast<std::uint32_t>(i / 2),
                         0.25f + 0.5f * static_cast<float>(mix64(rng) % 3)});
    } else if (r == 1) {
      // Sequential chain.
      for (std::uint32_t i = 0; i + 1 < nodes; ++i)
        edges.push_back({i, i + 1, 1.0f});
    } else {
      // Sparse random relation touching ~a quarter of the nodes.
      const std::size_t count = nodes / 4;
      for (std::size_t e = 0; e < count; ++e) {
        const auto src = static_cast<std::uint32_t>(mix64(rng) % nodes);
        const auto dst = static_cast<std::uint32_t>(mix64(rng) % nodes);
        edges.push_back({src, dst, 1.0f});
      }
    }
    g.relations.relations[r] = pg::nn::RelationEdges::from_edges(edges, nodes);
  }
  return g;
}

struct Mix {
  std::string name;
  std::vector<EncodedGraph> graphs;
  std::vector<std::array<float, 2>> aux;
  std::uint64_t total_cost = 0;
};

Mix make_mix(const std::string& name, const std::vector<std::size_t>& sizes) {
  Mix mix;
  mix.name = name;
  std::uint64_t rng = 0x5ca1ab1e;
  mix.graphs.reserve(sizes.size());
  mix.aux.reserve(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    mix.graphs.push_back(make_graph(sizes[i], mix64(rng)));
    const float t =
        static_cast<float>(i + 1) / static_cast<float>(sizes.size());
    mix.aux.push_back({t, 1.0f - t});
    mix.total_cost += pg::model::schedule::graph_cost(mix.graphs.back());
  }
  return mix;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = pg::run_scale_from_env() == pg::RunScale::kSmoke ||
                     pg::bench::has_flag(argc, argv, "--emit-fixture");
  const std::string json_path = pg::bench::json_path_from_args(argc, argv);

  const int max_threads = static_cast<int>(pg::bench::int_option(
      argc, argv, "--threads", omp_get_max_threads(), 1, omp_get_max_threads()));

  // Batch shapes. The three mixes stress different scheduler behaviours:
  // uniform (chunk fan-out), zipf (cost balancing under skew), one_giant
  // (intra-batch parallelism — chunking alone cannot split one graph).
  const std::size_t batch = smoke ? 64 : 256;
  const std::size_t uniform_nodes = 99;
  const std::size_t giant_nodes = smoke ? 4096 : 10000;
  const std::size_t small_nodes = 50;
  const int reps = smoke ? 1 : 3;
  const int iters = smoke ? 1 : 5;

  std::vector<Mix> mixes;
  {
    std::vector<std::size_t> uniform(batch, uniform_nodes);
    mixes.push_back(make_mix("uniform", uniform));

    std::vector<std::size_t> zipf;
    const std::size_t zipf_max = smoke ? 1000 : 2000;
    for (std::size_t i = 0; i < batch; ++i)
      zipf.push_back(std::max<std::size_t>(30, zipf_max / (i + 1)));
    mixes.push_back(make_mix("zipf", zipf));

    std::vector<std::size_t> giant(batch, small_nodes);
    giant[0] = giant_nodes;
    mixes.push_back(make_mix("one_giant", giant));
  }

  ParaGraphModel model(ModelConfig{});
  pg::bench::JsonReport report("bench_thread_scaling");
  report.add("scale", smoke ? "smoke" : "default");
  report.add("machine_threads", static_cast<std::size_t>(max_threads));
  report.add("batch", batch);
  report.add("giant_nodes", giant_nodes);

  std::printf("=== thread scaling: fused engine ===\n");
  std::printf("threads 1..%d, %zu-graph batches\n\n", max_threads, batch);

  // Per-mix bitwise reference: 1 thread.
  std::vector<std::vector<double>> reference(mixes.size());
  bool parity_ok = true;

  // tput[mix][threads] in graphs/s (median of reps).
  std::vector<std::vector<double>> tput(
      mixes.size(),
      std::vector<double>(static_cast<std::size_t>(max_threads) + 1, 0.0));
  pg::model::ScheduleStats giant_stats{};

  for (std::size_t m = 0; m < mixes.size(); ++m) {
    const Mix& mix = mixes[m];
    std::vector<double> out(mix.graphs.size());
    for (int t = 1; t <= max_threads; ++t) {
      omp_set_num_threads(t);
      InferenceEngine engine(model);
      engine.predict_batch(mix.graphs, mix.aux, out);  // warm the arenas
      const double median = pg::bench::median_of(reps, [&] {
        const double t0 = now_s();
        for (int it = 0; it < iters; ++it)
          engine.predict_batch(mix.graphs, mix.aux, out);
        return (now_s() - t0) / iters;
      });
      double& graphs_per_s = tput[m][static_cast<std::size_t>(t)];
      graphs_per_s = static_cast<double>(mix.graphs.size()) / median;

      if (t == 1) {
        reference[m] = out;
      } else if (out != reference[m]) {
        parity_ok = false;
        std::fprintf(stderr, "PARITY MISMATCH: mix=%s threads=%d\n",
                     mix.name.c_str(), t);
      }
      if (m == 2 && t == max_threads) giant_stats = engine.schedule_stats();

      report.add(mix.name + "_t" + std::to_string(t) + "_graphs_per_s",
                 graphs_per_s);
      std::printf("%-10s t=%d: %10.1f graphs/s\n", mix.name.c_str(), t,
                  graphs_per_s);
    }
  }
  omp_set_num_threads(max_threads);

  const auto tmax = static_cast<std::size_t>(max_threads);
  const double uniform_eff =
      tput[0][tmax] / (static_cast<double>(max_threads) * tput[0][1]);
  const double giant_speedup = tput[2][tmax] / tput[2][1];
  report.add("uniform_efficiency_at_cores", uniform_eff);
  report.add("one_giant_speedup", giant_speedup);
  report.add("giant_chunks", giant_stats.chunks);
  report.add("giant_intra_chunks", giant_stats.intra_chunks);
  report.add("giant_rows_per_chunk",
             giant_stats.chunks > 0
                 ? static_cast<double>(giant_stats.rows) /
                       static_cast<double>(giant_stats.chunks)
                 : 0.0);
  report.add("giant_last_imbalance", giant_stats.last_imbalance);
  report.add("parity_ok", parity_ok ? 1 : 0);

  std::printf("\nuniform efficiency at %d threads: %.3f\n", max_threads,
              uniform_eff);
  std::printf("one-giant speedup at %d threads:  %.3fx\n", max_threads,
              giant_speedup);

  if (!json_path.empty() && !report.write(json_path)) return 1;
  if (!parity_ok) {
    std::fprintf(stderr,
                 "bench_thread_scaling: bitwise parity FAILED across thread "
                 "counts\n");
    return 1;
  }
  std::printf("parity: all configurations bitwise-equal to the 1-thread "
              "reference\n");
  return 0;
}
