// Per-kernel microbenchmarks for the SIMD dispatch layer: every dispatched
// kernel timed under PARAGRAPH_SIMD=scalar and under the best level this
// machine supports (median of 3 timed repetitions each), plus the
// substrate-level numbers (warm single-graph predict, engine batch
// throughput) under both levels. The RGAT kernels run at one conv's shape
// on the serve payloads (80 nodes, 200 active rows over 6 relations, about
// 167 edges, nearly all in single-edge groups), the first layer on one-hot
// rows. Emits BENCH_kernels.json (`--json <path>` overrides) with a machine
// header, so the per-kernel scalar-vs-SIMD ratios are recorded across
// changes, not asserted. Plain main(): no google-benchmark dependency.
#include <array>
#include <chrono>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dataset/generator.hpp"
#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "model/encoding.hpp"
#include "model/engine.hpp"
#include "model/paragraph_model.hpp"
#include "support/rng.hpp"
#include "tensor/init.hpp"
#include "tensor/matrix.hpp"
#include "tensor/simd.hpp"
#include "tensor/workspace.hpp"

namespace {

using namespace pg;
using tensor::Matrix;
using tensor::simd::KernelTable;

/// Mean ns/call over `iters` calls after one untimed warm-up.
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

/// Median of 3 repetitions of mean_ns.
template <typename Fn>
double median_ns(std::size_t iters, Fn&& fn) {
  return bench::median_of(3, [&] { return mean_ns(iters, fn); });
}

Matrix random_matrix(std::size_t rows, std::size_t cols, pg::Rng& rng) {
  Matrix m(rows, cols);
  tensor::uniform_init(m, rng, -1.0f, 1.0f);
  return m;
}

/// Adds <name>_ns_scalar / _ns_simd / _speedup (and optional GFLOP/s from
/// `flops` per call) for one kernel invocation timed under both tables.
template <typename Fn>
void report_kernel(bench::JsonReport& report, const std::string& name,
                   std::size_t iters, double flops, Fn&& run) {
  const KernelTable& scalar =
      tensor::simd::kernels_for(tensor::simd::SimdLevel::kScalar);
  const KernelTable& best =
      tensor::simd::kernels_for(tensor::simd::max_supported_level());
  const double scalar_ns = median_ns(iters, [&] { run(scalar); });
  const double simd_ns = median_ns(iters, [&] { run(best); });
  report.add(name + "_ns_scalar", scalar_ns);
  report.add(name + "_ns_simd", simd_ns);
  report.add(name + "_speedup", scalar_ns / simd_ns);
  if (flops > 0.0) {
    report.add(name + "_gflops_scalar", flops / scalar_ns);
    report.add(name + "_gflops_simd", flops / simd_ns);
  }
}

const model::EncodedGraph& mm_encoded() {
  static const model::EncodedGraph enc = [] {
    const auto& suite = dataset::benchmark_suite();
    std::string source;
    for (const auto& spec : suite)
      if (spec.kernel == "matmul")
        source = dataset::instantiate_source(
            spec, dataset::Variant::kGpuCollapseMem, spec.default_sizes[3],
            256, 256);
    const auto parsed = frontend::parse_source(source);
    const auto g = graph::build_graph(parsed.root(), {});
    return model::encode_graph(g, g.max_child_weight());
  }();
  return enc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = bench::json_path_from_args(argc, argv);
  if (json_path.empty()) json_path = "BENCH_kernels.json";

  pg::Rng rng(42);
  bench::JsonReport report("micro_kernels");
  bench::add_machine_header(report);
  report.add("simd_max_level",
             tensor::simd::level_name(tensor::simd::max_supported_level()));

  // matmul at the model's conv shape (99 nodes, feature 32 -> hidden 24)
  // and at a square generic-width shape.
  {
    const Matrix a = random_matrix(99, 32, rng);
    const Matrix b = random_matrix(32, 24, rng);
    Matrix c(99, 24);
    report_kernel(report, "matmul_99x32x24", 20000, 2.0 * 99 * 32 * 24,
                  [&](const KernelTable& k) {
                    k.matmul(a.data().data(), b.data().data(),
                             c.data().data(), 99, 32, 24, false);
                  });
  }
  {
    const Matrix a = random_matrix(192, 192, rng);
    const Matrix b = random_matrix(192, 192, rng);
    Matrix c(192, 192);
    report_kernel(report, "matmul_192cubed", 300, 2.0 * 192 * 192 * 192,
                  [&](const KernelTable& k) {
                    k.matmul(a.data().data(), b.data().data(),
                             c.data().data(), 192, 192, 192, false);
                  });
  }
  {
    const Matrix a = random_matrix(99, 24, rng);
    const Matrix b = random_matrix(99, 24, rng);
    Matrix c(24, 24);
    report_kernel(report, "matmul_t_a_acc_24", 20000, 2.0 * 99 * 24 * 24,
                  [&](const KernelTable& k) {
                    k.matmul_t_a_acc(a.data().data(), nullptr,
                                     b.data().data(), c.data().data(), 24, 99,
                                     24);
                  });
  }
  // The RGAT backward's relation shapes: 99 active rows of a 198-node input
  // (every other node), hidden 24. dW_r += gather(x)^T dg, and the
  // double-accumulated dx products: the self connection (dense, stored)
  // and the relation scatter (row-indexed, accumulated).
  {
    const Matrix x = random_matrix(198, 24, rng);
    const Matrix dg = random_matrix(99, 24, rng);
    const Matrix w_t = random_matrix(24, 24, rng);
    std::vector<std::uint32_t> nodes(99);
    for (std::size_t i = 0; i < nodes.size(); ++i)
      nodes[i] = static_cast<std::uint32_t>(2 * i);
    Matrix dw(24, 24);
    Matrix dx(198, 24);
    report_kernel(report, "matmul_t_a_acc_gather_99x24x24", 20000,
                  2.0 * 99 * 24 * 24, [&](const KernelTable& k) {
                    k.matmul_t_a_acc(x.data().data(), nodes.data(),
                                     dg.data().data(), dw.data().data(), 24,
                                     99, 24);
                  });
    report_kernel(report, "matmul_t_b_99x24x24", 20000, 2.0 * 99 * 24 * 24,
                  [&](const KernelTable& k) {
                    k.matmul_t_b(dg.data().data(), w_t.data().data(),
                                 dx.data().data(), nullptr, 99, 24, 24,
                                 false);
                  });
    report_kernel(report, "matmul_t_b_scatter_acc_99x24x24", 20000,
                  2.0 * 99 * 24 * 24, [&](const KernelTable& k) {
                    k.matmul_t_b(dg.data().data(), w_t.data().data(),
                                 dx.data().data(), nodes.data(), 99, 24, 24,
                                 true);
                  });
  }
  {
    // 64 segments of 99 rows: the fused-batch read-out shape.
    const Matrix a = random_matrix(64 * 99, 24, rng);
    Matrix out(64, 24);
    std::vector<std::uint32_t> offsets(65);
    for (std::size_t s = 0; s < offsets.size(); ++s)
      offsets[s] = static_cast<std::uint32_t>(99 * s);
    report_kernel(report, "segment_row_mean_64x99x24", 5000,
                  static_cast<double>(64 * 99 * 24),
                  [&](const KernelTable& k) {
                    k.segment_row_mean(out.data().data(), a.data().data(),
                                       offsets.data(), 64, 24);
                  });
  }
  {
    const Matrix bias = random_matrix(1, 24, rng);
    Matrix y = random_matrix(99, 24, rng);
    report_kernel(report, "add_bias_rows_99x24", 50000,
                  static_cast<double>(99 * 24), [&](const KernelTable& k) {
                    k.add_bias_rows(y.data().data(), bias.data().data(), 99,
                                    24);
                  });
  }
  {
    const Matrix x = random_matrix(1, 99 * 24, rng);
    Matrix y(1, 99 * 24);
    report_kernel(report, "relu_2376", 50000, 0.0, [&](const KernelTable& k) {
      k.relu(y.data().data(), x.data().data(), 99 * 24);
    });
    report_kernel(report, "leaky_relu_grad_2376", 50000, 0.0,
                  [&](const KernelTable& k) {
                    k.leaky_relu_grad(y.data().data(), x.data().data(), 0.2f,
                                      99 * 24);
                  });
  }
  {
    const std::size_t n = 24 * 24;
    Matrix theta = random_matrix(1, n, rng);
    const Matrix g = random_matrix(1, n, rng);
    Matrix m(1, n), v(1, n);
    tensor::simd::AdamStep step;
    step.bias1 = 0.1;
    step.bias2 = 0.001;
    report_kernel(report, "adam_update_576", 20000, 0.0,
                  [&](const KernelTable& k) {
                    k.adam_update(theta.data().data(), g.data().data(),
                                  m.data().data(), v.data().data(), n, step);
                  });
  }

  // The RGAT conv's relation kernels at one conv's shape: 200 active rows
  // gathered from 80 nodes, hidden 24. The first layer projects one-hot
  // rows held as a kind byte and a literal (a third of the literals
  // nonzero) and scatters its dW the same way; the later layers project
  // dense 24-wide rows.
  {
    constexpr std::size_t kNodes = 80;
    constexpr std::size_t kActive = 200;
    constexpr std::size_t kHidden = 24;
    constexpr std::size_t kFeatures = 45;
    std::vector<std::uint8_t> kinds(kNodes);
    std::vector<float> literals(kNodes, 0.0f);
    for (std::size_t i = 0; i < kNodes; ++i) {
      kinds[i] = static_cast<std::uint8_t>((7 * i) % (kFeatures - 1));
      if (i % 3 == 0) literals[i] = 0.25f;
    }
    const Matrix dense = random_matrix(kNodes, kHidden, rng);
    const Matrix w1 = random_matrix(kFeatures, kHidden, rng);
    const Matrix w2 = random_matrix(kHidden, kHidden, rng);
    std::vector<std::uint32_t> nodes(kActive);
    for (std::size_t i = 0; i < kActive; ++i)
      nodes[i] = static_cast<std::uint32_t>((13 * i) % kNodes);
    Matrix g(kActive, kHidden);
    report_kernel(report, "onehot_project_200x24", 20000,
                  2.0 * kActive * kHidden, [&](const KernelTable& k) {
                    k.onehot_project(kinds.data(), literals.data(),
                                     nodes.data(), kActive, w1.data().data(),
                                     kFeatures - 1, g.data().data(), kHidden);
                  });
    Matrix dw(kFeatures, kHidden);
    report_kernel(report, "onehot_scatter_acc_200x24", 20000,
                  2.0 * kActive * kHidden, [&](const KernelTable& k) {
                    k.onehot_scatter_acc(kinds.data(), literals.data(),
                                         nodes.data(), kActive,
                                         g.data().data(), dw.data().data(),
                                         kFeatures - 1, kHidden);
                  });
    report_kernel(report, "rgat_gather_project_dense_200x24x24", 20000,
                  2.0 * kActive * kHidden * kHidden,
                  [&](const KernelTable& k) {
                    k.rgat_gather_project(nodes.data(), kActive,
                                          dense.data().data(), kHidden,
                                          w2.data().data(), g.data().data(),
                                          kHidden, 0);
                  });

    const Matrix gv = random_matrix(kActive, kHidden, rng);
    const Matrix a_src = random_matrix(1, kHidden, rng);
    const Matrix a_dst = random_matrix(1, kHidden, rng);
    Matrix ss(1, kActive), sd(1, kActive);
    report_kernel(report, "rgat_attention_dots_200x24", 50000,
                  4.0 * kActive * kHidden, [&](const KernelTable& k) {
                    k.rgat_attention_dots(gv.data().data(), kActive, kHidden,
                                          a_src.data().data(),
                                          a_dst.data().data(),
                                          ss.data().data(), sd.data().data());
                  });

    // One relation's attention backward: 160 destination groups, every
    // tenth with 2 extra edges (192 edges), sources spread over the rows.
    std::vector<std::uint32_t> offsets = {0}, group_dst, src_local, all(kActive);
    for (std::size_t v = 0; v < 160; ++v) {
      group_dst.push_back(static_cast<std::uint32_t>(v));
      for (std::size_t e = 0; e < (v % 10 == 0 ? 3u : 1u); ++e)
        src_local.push_back(
            static_cast<std::uint32_t>((src_local.size() * 37 + 5) % kActive));
      offsets.push_back(static_cast<std::uint32_t>(src_local.size()));
    }
    for (std::size_t i = 0; i < kActive; ++i)
      all[i] = static_cast<std::uint32_t>(i);
    const std::size_t edges = src_local.size();
    Matrix gates(1, edges, 1.0f), alpha(1, edges, 0.5f), lrg(1, edges, 1.0f);
    const Matrix dpre = random_matrix(kActive, kHidden, rng);
    Matrix dscore(1, edges), dg(kActive, kHidden);
    Matrix ds_src(1, kActive), ds_dst(1, kActive);
    Matrix da_src(1, kHidden), da_dst(1, kHidden);
    tensor::simd::AttentionGrad args;
    args.group_offsets = offsets.data();
    args.group_dst = group_dst.data();
    args.num_groups = group_dst.size();
    args.nodes = all.data();
    args.src_local = src_local.data();
    args.num_active = kActive;
    args.out = kHidden;
    args.gates = gates.data().data();
    args.alpha = alpha.data().data();
    args.lrg = lrg.data().data();
    args.dpre = dpre.data().data();
    args.g = gv.data().data();
    args.a_src = a_src.data().data();
    args.a_dst = a_dst.data().data();
    args.dscore = dscore.data().data();
    args.dg = dg.data().data();
    args.ds_src = ds_src.data().data();
    args.ds_dst = ds_dst.data().data();
    args.da_src = da_src.data().data();
    args.da_dst = da_dst.data().data();
    report_kernel(report, "rgat_attention_backward_192e_200x24", 20000, 0.0,
                  [&](const KernelTable& k) {
                    // The accumulators grow run over run; the work per call
                    // does not depend on their values.
                    k.rgat_attention_backward(args);
                  });

    // A single-edge relation of the same size for the gated kernels (every
    // relation but Ref on the corpus): 192 distinct destinations, sources
    // spread over the rows.
    constexpr std::size_t kSingleEdges = 192;
    std::vector<std::uint32_t> single_dst(kSingleEdges), single_src(kSingleEdges);
    for (std::size_t e = 0; e < kSingleEdges; ++e) {
      single_dst[e] = static_cast<std::uint32_t>(e);
      single_src[e] = static_cast<std::uint32_t>((e * 37 + 5) % kActive);
    }
    const Matrix single_gates = random_matrix(1, kSingleEdges, rng);
    Matrix pre(kActive, kHidden);
    report_kernel(report, "rgat_gated_scatter_192e_200x24", 50000,
                  2.0 * kSingleEdges * kHidden, [&](const KernelTable& k) {
                    k.rgat_gated_scatter(single_dst.data(), all.data(),
                                         single_src.data(),
                                         single_gates.data().data(),
                                         kSingleEdges, gv.data().data(),
                                         pre.data().data(), kHidden);
                  });
    report_kernel(report, "rgat_gated_gather_192e_200x24", 50000,
                  2.0 * kSingleEdges * kHidden, [&](const KernelTable& k) {
                    k.rgat_gated_gather(single_dst.data(), all.data(),
                                        single_src.data(),
                                        single_gates.data().data(),
                                        kSingleEdges, dpre.data().data(),
                                        dg.data().data(), kHidden);
                  });
  }

  // Substrate numbers under both levels: warm single-graph predict (the
  // matmul kernel graph, hidden 24) and the 256-graph engine batch.
  {
    const auto& enc = mm_encoded();
    model::ModelConfig config;
    config.hidden_dim = 24;
    model::ParaGraphModel m(config);
    const std::array<float, 2> aux = {0.5f, 0.5f};
    constexpr std::size_t kBatch = 256;
    std::vector<model::EncodedGraph> graphs(kBatch, enc);
    std::vector<std::array<float, 2>> batch_aux(kBatch, aux);
    std::vector<double> out(kBatch);
    volatile double sink = 0.0;

    const auto saved = tensor::simd::active_level();
    for (const auto& [level, suffix] :
         {std::pair{tensor::simd::SimdLevel::kScalar, "_scalar"},
          std::pair{tensor::simd::max_supported_level(), "_simd"}}) {
      tensor::simd::set_active_level(level);
      tensor::Workspace warm;
      report.add(std::string("predict_warm_ns") + suffix,
                 median_ns(2000, [&] { sink = sink + m.predict(enc, aux, warm); }));
      model::InferenceEngine engine(m);
      const double batch_ns =
          median_ns(32, [&] { engine.predict_batch(graphs, batch_aux, out); });
      report.add(std::string("engine_batch256_graphs_per_s") + suffix,
                 1e9 * kBatch / batch_ns);
    }
    tensor::simd::set_active_level(saved);
  }

  return report.write(json_path) ? 0 : 1;
}
