// Tests for the dataset pipeline: the Table-I suite, the six variants,
// sweep generation, determinism, sample-set assembly, and the .pgds corpus
// cache.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "dataset/corpus_cache.hpp"
#include "dataset/generator.hpp"
#include "dataset/sample_builder.hpp"
#include "frontend/parser.hpp"
#include "io/dataset_view.hpp"
#include "io/pgraph_io.hpp"
#include "support/check.hpp"

namespace pg::dataset {
namespace {

// ------------------------------------------------------------------ suite ---

TEST(Suite, SeventeenKernelsNineApps) {
  const auto& suite = benchmark_suite();
  EXPECT_EQ(suite.size(), 17u);  // paper: "seventeen kernels"
  EXPECT_EQ(num_applications(), 9u);
}

TEST(Suite, KernelCountsPerAppMatchTableI) {
  std::map<std::string, int> counts;
  for (const auto& spec : benchmark_suite()) ++counts[spec.app];
  EXPECT_EQ(counts["Correlation"], 1);
  EXPECT_EQ(counts["Covariance"], 2);
  EXPECT_EQ(counts["Gauss"], 1);
  EXPECT_EQ(counts["NN"], 1);
  EXPECT_EQ(counts["Laplace"], 2);
  EXPECT_EQ(counts["MM"], 1);
  EXPECT_EQ(counts["MV"], 1);
  EXPECT_EQ(counts["Transpose"], 1);
  EXPECT_EQ(counts["ParticleFilter"], 7);
}

TEST(Suite, KernelNamesAreUnique) {
  std::set<std::string> names;
  for (const auto& spec : benchmark_suite()) names.insert(spec.kernel);
  EXPECT_EQ(names.size(), benchmark_suite().size());
}

TEST(Suite, EverySpecHasSizesAndMapClause) {
  for (const auto& spec : benchmark_suite()) {
    EXPECT_FALSE(spec.default_sizes.empty()) << spec.kernel;
    EXPECT_FALSE(spec.map_clause.empty()) << spec.kernel;
    EXPECT_NE(spec.source_template.find("${PRAGMA}"), std::string::npos)
        << spec.kernel;
  }
}

TEST(Suite, AppIdsAreStableAndDense) {
  std::set<std::int32_t> ids;
  for (const auto& spec : benchmark_suite()) ids.insert(app_id(spec.app));
  EXPECT_EQ(ids.size(), 9u);
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), 8);
  EXPECT_EQ(app_id("MM"), app_id("MM"));
}

TEST(Suite, UnknownAppThrows) { EXPECT_THROW(app_id("NotAnApp"), InternalError); }

// --------------------------------------------------------------- variants ---

TEST(Variants, NamesMatchPaper) {
  EXPECT_EQ(variant_name(Variant::kCpu), "cpu");
  EXPECT_EQ(variant_name(Variant::kCpuCollapse), "cpu_collapse");
  EXPECT_EQ(variant_name(Variant::kGpu), "gpu");
  EXPECT_EQ(variant_name(Variant::kGpuCollapse), "gpu_collapse");
  EXPECT_EQ(variant_name(Variant::kGpuMem), "gpu_mem");
  EXPECT_EQ(variant_name(Variant::kGpuCollapseMem), "gpu_collapse_mem");
}

TEST(Variants, Predicates) {
  EXPECT_FALSE(variant_is_gpu(Variant::kCpu));
  EXPECT_TRUE(variant_is_gpu(Variant::kGpuCollapseMem));
  EXPECT_TRUE(variant_has_collapse(Variant::kCpuCollapse));
  EXPECT_FALSE(variant_has_collapse(Variant::kGpuMem));
  EXPECT_TRUE(variant_has_transfer(Variant::kGpuMem));
  EXPECT_FALSE(variant_has_transfer(Variant::kGpu));
}

TEST(Variants, ApplicableSetRespectsCollapsibility) {
  const auto& suite = benchmark_suite();
  const KernelSpec* matmul = nullptr;
  const KernelSpec* matvec = nullptr;
  for (const auto& spec : suite) {
    if (spec.kernel == "matmul") matmul = &spec;
    if (spec.kernel == "matvec") matvec = &spec;
  }
  ASSERT_NE(matmul, nullptr);
  ASSERT_NE(matvec, nullptr);
  EXPECT_EQ(applicable_variants(*matmul, /*gpu=*/true).size(), 4u);
  EXPECT_EQ(applicable_variants(*matvec, /*gpu=*/true).size(), 2u);
  EXPECT_EQ(applicable_variants(*matmul, /*gpu=*/false).size(), 2u);
  EXPECT_EQ(applicable_variants(*matvec, /*gpu=*/false).size(), 1u);
}

TEST(Variants, SubstitutePlaceholders) {
  const std::string out = substitute_placeholders(
      "for (i < ${N}) a[${N}] ${X}", {{"N", "42"}, {"X", "ok"}});
  EXPECT_EQ(out, "for (i < 42) a[42] ok");
}

TEST(Variants, UnboundPlaceholderThrows) {
  EXPECT_THROW(substitute_placeholders("${MISSING}", {}), InternalError);
}

TEST(Variants, DirectiveContainsConfigAndClauses) {
  const auto& spec = benchmark_suite().front();  // correlation (reduction)
  const std::string gpu = build_directive(spec, Variant::kGpuMem, 128, 64);
  EXPECT_NE(gpu.find("target teams distribute parallel for"), std::string::npos);
  EXPECT_NE(gpu.find("num_teams(128)"), std::string::npos);
  EXPECT_NE(gpu.find("thread_limit(64)"), std::string::npos);
  EXPECT_NE(gpu.find("reduction(+:"), std::string::npos);
  EXPECT_NE(gpu.find("map("), std::string::npos);

  const std::string cpu = build_directive(spec, Variant::kCpu, 1, 8);
  EXPECT_NE(cpu.find("parallel for num_threads(8)"), std::string::npos);
  EXPECT_NE(cpu.find("schedule(static)"), std::string::npos);
  EXPECT_EQ(cpu.find("map("), std::string::npos);  // no transfer on cpu
}

TEST(Variants, CollapseOnlyWhenRequested) {
  const KernelSpec* matmul = nullptr;
  for (const auto& spec : benchmark_suite())
    if (spec.kernel == "matmul") matmul = &spec;
  EXPECT_NE(build_directive(*matmul, Variant::kGpuCollapse, 4, 4).find("collapse(2)"),
            std::string::npos);
  EXPECT_EQ(build_directive(*matmul, Variant::kGpu, 4, 4).find("collapse"),
            std::string::npos);
}

TEST(Variants, EveryInstantiationParses) {
  // The cross-product (kernel x applicable variant x first/last size) must
  // all go through the real frontend cleanly.
  for (const auto& spec : benchmark_suite()) {
    for (bool gpu : {false, true}) {
      for (const Variant v : applicable_variants(spec, gpu)) {
        for (const SizePoint& size :
             {spec.default_sizes.front(), spec.default_sizes.back()}) {
          const std::string source = instantiate_source(spec, v, size, 64, 128);
          const auto parsed = frontend::parse_source(source);
          EXPECT_TRUE(parsed.ok())
              << spec.kernel << "/" << variant_name(v) << ":\n"
              << parsed.diagnostics.summary();
        }
      }
    }
  }
}

// -------------------------------------------------------------- generator ---

GenerationConfig smoke_config() {
  GenerationConfig config;
  config.scale = RunScale::kSmoke;
  return config;
}

TEST(Generator, ProducesPointsForCpuAndGpu) {
  const auto cpu_points = generate_dataset(sim::summit_power9(), smoke_config());
  const auto gpu_points = generate_dataset(sim::summit_v100(), smoke_config());
  EXPECT_GT(cpu_points.size(), 50u);
  EXPECT_GT(gpu_points.size(), cpu_points.size());  // Table II shape
}

TEST(Generator, CpuPointsUseCpuVariants) {
  const auto points = generate_dataset(sim::corona_epyc7401(), smoke_config());
  for (const auto& p : points) {
    EXPECT_TRUE(p.variant == "cpu" || p.variant == "cpu_collapse") << p.variant;
    EXPECT_EQ(p.num_teams, 1);
  }
}

TEST(Generator, GpuPointsUseGpuVariants) {
  const auto points = generate_dataset(sim::corona_mi50(), smoke_config());
  std::set<std::string> variants;
  for (const auto& p : points) {
    EXPECT_TRUE(p.variant.starts_with("gpu"));
    variants.insert(p.variant);
  }
  EXPECT_EQ(variants.size(), 4u);  // gpu, gpu_mem, gpu_collapse, gpu_collapse_mem
}

TEST(Generator, DeterministicForSeed) {
  const auto a = generate_dataset(sim::summit_v100(), smoke_config());
  const auto b = generate_dataset(sim::summit_v100(), smoke_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kernel, b[i].kernel);
    EXPECT_DOUBLE_EQ(a[i].runtime_us, b[i].runtime_us);
  }
}

TEST(Generator, DifferentSeedDifferentNoise) {
  auto config = smoke_config();
  const auto a = generate_dataset(sim::summit_v100(), config);
  config.seed += 1;
  const auto b = generate_dataset(sim::summit_v100(), config);
  ASSERT_EQ(a.size(), b.size());
  int distinct = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    distinct += (a[i].runtime_us != b[i].runtime_us);
  EXPECT_GT(distinct, static_cast<int>(a.size()) / 2);
}

TEST(Generator, RuntimesPositiveAndProfilesPopulated) {
  const auto points = generate_dataset(sim::summit_v100(), smoke_config());
  for (const auto& p : points) {
    EXPECT_GT(p.runtime_us, 0.0);
    EXPECT_GT(p.profile.total_ops() + p.profile.loads + p.profile.stores, 0.0);
    EXPECT_TRUE(p.profile.has_directive);
    EXPECT_GE(p.app_id, 0);
  }
}

TEST(Generator, MemVariantsCarryTransferBytes) {
  const auto points = generate_dataset(sim::summit_v100(), smoke_config());
  for (const auto& p : points) {
    if (p.variant.ends_with("_mem")) {
      EXPECT_GT(p.profile.transfer_bytes(), 0.0) << p.kernel;
    } else {
      EXPECT_EQ(p.profile.transfer_bytes(), 0.0) << p.kernel;
    }
  }
}

TEST(Generator, StatsMatchPaperShape) {
  // CPU runtimes spread much wider than GPU (Table II: POWER9 stddev 48.5 s
  // vs V100 3.7 s).
  const auto cpu = dataset_stats(generate_dataset(sim::summit_power9(), smoke_config()));
  const auto gpu = dataset_stats(generate_dataset(sim::summit_v100(), smoke_config()));
  EXPECT_GT(cpu.max_runtime_us, gpu.max_runtime_us);
  EXPECT_GT(cpu.stddev_us, gpu.stddev_us);
  EXPECT_LT(gpu.min_runtime_us, 1000.0);  // sub-millisecond kernels exist
}

// --------------------------------------------------------- sample builder ---

TEST(SampleBuilder, SplitsNineToOne) {
  const auto points = generate_dataset(sim::summit_v100(), smoke_config());
  SampleBuildConfig config;
  const auto set = build_sample_set(points, config);
  EXPECT_EQ(set.train.size() + set.validation.size(), points.size());
  const double fraction = static_cast<double>(set.validation.size()) /
                          static_cast<double>(points.size());
  EXPECT_NEAR(fraction, 0.1, 0.02);
}

TEST(SampleBuilder, TargetsScaledToUnitInterval) {
  const auto points = generate_dataset(sim::summit_v100(), smoke_config());
  const auto set = build_sample_set(points, {});
  for (const auto& s : set.train) {
    EXPECT_GE(s.target_scaled, 0.0);
    EXPECT_LE(s.target_scaled, 1.0);
    EXPECT_NEAR(set.target_scaler.inverse(s.target_scaled), s.runtime_us,
                1e-6 * s.runtime_us + 1e-9);
  }
}

TEST(SampleBuilder, ChildWeightScaleIsGlobalMax) {
  const auto points = generate_dataset(sim::summit_v100(), smoke_config());
  const auto set = build_sample_set(points, {});
  EXPECT_GT(set.child_weight_scale, 1.0);
  // No training-gate exceeds 1 by construction.
  for (const auto& s : set.train)
    for (const float gate : s.graph.relations.relations[0].gate)
      EXPECT_LE(gate, 1.0f);
}

TEST(SampleBuilder, RepresentationControlsRelations) {
  const auto points = generate_dataset(sim::summit_v100(), smoke_config());
  SampleBuildConfig raw;
  raw.representation = graph::Representation::kRawAst;
  const auto set = build_sample_set(points, raw);
  for (std::size_t r = 1; r < graph::kNumEdgeTypes; ++r)
    EXPECT_TRUE(set.train.front().graph.relations.relations[r].empty());
}

TEST(SampleBuilder, MetadataPreserved) {
  const auto points = generate_dataset(sim::summit_v100(), smoke_config());
  const auto set = build_sample_set(points, {});
  std::set<std::string> apps;
  for (const auto& s : set.validation) {
    EXPECT_FALSE(s.app_name.empty());
    EXPECT_FALSE(s.variant.empty());
    apps.insert(s.app_name);
  }
  EXPECT_GT(apps.size(), 3u);
}

TEST(SampleBuilder, PointGraphHonoursWorkers) {
  RawDataPoint point;
  point.variant = "gpu";
  point.num_teams = 16;
  point.num_threads = 32;  // workers = 512
  point.source = R"(
    double a[1024];
    void f(void) {
      #pragma omp target teams distribute parallel for num_teams(16) thread_limit(32)
      for (int i = 0; i < 1024; i++) a[i] = 0.0;
    }
  )";
  const auto g = build_point_graph(point, graph::Representation::kParaGraph);
  EXPECT_EQ(g.max_child_weight(), 2.0f);  // 1024 / 512
}

TEST(SampleBuilder, CpuWorkersAreThreads) {
  RawDataPoint point;
  point.variant = "cpu";
  point.num_teams = 1;
  point.num_threads = 8;
  point.source = R"(
    double a[1024];
    void f(void) {
      #pragma omp parallel for num_threads(8) schedule(static)
      for (int i = 0; i < 1024; i++) a[i] = 0.0;
    }
  )";
  const auto g = build_point_graph(point, graph::Representation::kParaGraph);
  EXPECT_EQ(g.max_child_weight(), 128.0f);  // 1024 / 8
}

TEST(SampleBuilder, EmptyDatasetThrows) {
  EXPECT_THROW(build_sample_set({}, {}), InternalError);
}

// ----------------------------------------------------------- corpus cache ---

/// A set's samples, split partition and scalers as bytes: two sets are
/// bitwise equal iff these are.
std::string set_bytes(const model::SampleSet& set) {
  std::ostringstream os(std::ios::binary);
  io::write_sample_set(os, set, "", "", 0);
  return os.str();
}

TEST(CorpusCache, FlippedBodyBitIsRebuiltNotReturned) {
  const auto points = generate_dataset(sim::summit_v100(), smoke_config());
  const SampleBuildConfig config;
  CorpusKey key;
  key.platform_name = sim::summit_v100().name;
  key.scale = RunScale::kSmoke;
  const std::string dir = ::testing::TempDir() + "corpus_cache_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const std::string want = set_bytes(build_sample_set(points, config));

  // The first call builds and writes the cache, the second loads it.
  EXPECT_EQ(set_bytes(load_or_build_sample_set(dir, key, points, config)),
            want);
  const std::string path =
      corpus_cache_path(dir, key, points_fingerprint(points));
  ASSERT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(set_bytes(load_or_build_sample_set(dir, key, points, config)),
            want);

  // Flip the low bit of record 0's runtime (its body holds the split tag,
  // two f32 aux values and the f64 target first): still a finite runtime,
  // so only the record checksum can tell.
  std::uint64_t victim = 0;
  {
    const io::DatasetView view(path);
    victim = view.record_offset(0) + 12 + 1 + 4 + 4 + 8;
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(victim));
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(victim));
    f.put(static_cast<char>(byte ^ 0x01));
    ASSERT_TRUE(static_cast<bool>(f));
  }
  EXPECT_THROW((void)io::load_sample_set(io::DatasetView(path)),
               io::FormatError);

  // The cache rebuilds rather than returning the corrupt sample, and writes
  // the rebuilt set back whole.
  EXPECT_EQ(set_bytes(load_or_build_sample_set(dir, key, points, config)),
            want);
  EXPECT_EQ(set_bytes(io::load_sample_set(io::DatasetView(path)).set), want);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pg::dataset
