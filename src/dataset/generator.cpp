// The (kernel x variant x size x launch-config) sweep. Each point is
// instantiated to real source, parsed, and priced by the simulator;
// OpenMP-parallel over sweep points.
#include "dataset/generator.hpp"

#include "frontend/parser.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace pg::dataset {
namespace {

std::vector<std::int64_t> default_cpu_threads(RunScale scale, int cores) {
  switch (scale) {
    case RunScale::kSmoke: return {1, 4, static_cast<std::int64_t>(cores)};
    case RunScale::kFull:
      return {1, 2, 4, 6, 8, 12, 16, 20, static_cast<std::int64_t>(cores)};
    case RunScale::kDefault: break;
  }
  return {1, 2, 4, 8, 16, static_cast<std::int64_t>(cores)};
}

std::vector<std::pair<std::int64_t, std::int64_t>> default_gpu_configs(
    RunScale scale) {
  switch (scale) {
    case RunScale::kSmoke: return {{64, 64}, {256, 256}};
    case RunScale::kFull:
      return {{16, 32},   {32, 64},   {64, 64},   {64, 128},  {128, 128},
              {256, 128}, {256, 256}, {512, 256}, {1024, 256}, {2048, 128}};
    case RunScale::kDefault: break;
  }
  return {{32, 64}, {64, 128}, {128, 128}, {256, 256}, {512, 256}, {1024, 256}};
}

std::vector<SizePoint> sizes_for_scale(const KernelSpec& spec, RunScale scale) {
  std::vector<SizePoint> sizes = spec.default_sizes;
  if (scale == RunScale::kSmoke) {
    // Keep ~3 sizes spanning the range.
    std::vector<SizePoint> trimmed;
    for (std::size_t i = 0; i < sizes.size(); i += 2) trimmed.push_back(sizes[i]);
    return trimmed;
  }
  if (scale == RunScale::kFull) {
    sizes.insert(sizes.end(), spec.extra_full_sizes.begin(),
                 spec.extra_full_sizes.end());
  }
  return sizes;
}

}  // namespace

std::vector<RawDataPoint> generate_dataset(const sim::Platform& platform,
                                           const GenerationConfig& config) {
  const bool gpu = platform.kind == sim::DeviceKind::kGpu;

  std::vector<std::int64_t> cpu_threads = config.cpu_thread_counts;
  if (cpu_threads.empty())
    cpu_threads = default_cpu_threads(config.scale, platform.cores);
  auto gpu_configs = config.gpu_launch_configs;
  if (gpu_configs.empty()) gpu_configs = default_gpu_configs(config.scale);

  // Enumerate every sweep point first so the parallel loop below is a flat,
  // deterministic iteration space.
  struct SweepPoint {
    const KernelSpec* spec;
    Variant variant;
    SizePoint sizes;
    std::int64_t teams;
    std::int64_t threads;
  };
  std::vector<SweepPoint> sweep;
  for (const KernelSpec& spec : benchmark_suite()) {
    const auto variants = applicable_variants(spec, gpu);
    const auto sizes = sizes_for_scale(spec, config.scale);
    for (const Variant variant : variants) {
      for (const SizePoint& size : sizes) {
        if (gpu) {
          for (const auto& [teams, threads] : gpu_configs)
            sweep.push_back({&spec, variant, size, teams, threads});
        } else {
          for (const std::int64_t threads : cpu_threads)
            sweep.push_back({&spec, variant, size, /*teams=*/1, threads});
        }
      }
    }
  }

  // Per-point RNG streams derived up front keep the result independent of
  // the parallel execution order.
  pg::Rng master(config.seed ^ std::hash<std::string>{}(platform.name));
  std::vector<pg::Rng> streams;
  streams.reserve(sweep.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) streams.push_back(master.split());

  std::vector<RawDataPoint> points(sweep.size());
  LoopFailures failures;
#pragma omp parallel for schedule(dynamic, 4)
  for (std::size_t i = 0; i < sweep.size(); ++i)
    failures.run(i, [&] {
      const SweepPoint& sp = sweep[i];
      RawDataPoint point;
      point.app = sp.spec->app;
      point.kernel = sp.spec->kernel;
      point.variant = std::string(variant_name(sp.variant));
      point.app_id = app_id(sp.spec->app);
      point.sizes = sp.sizes;
      point.num_teams = sp.teams;
      point.num_threads = sp.threads;
      point.source = instantiate_source(*sp.spec, sp.variant, sp.sizes,
                                        sp.teams, sp.threads);

      const frontend::ParseResult parsed = frontend::parse_source(point.source);
      check(parsed.ok(), "generated kernel source failed to parse");
      point.profile = sim::profile_kernel(parsed.root());
      point.runtime_us = sim::measure_runtime_us(point.profile, platform,
                                                 streams[i], config.sim);
      points[i] = std::move(point);
    });
  failures.rethrow();
  return points;
}

DatasetStats dataset_stats(const std::vector<RawDataPoint>& points) {
  check(!points.empty(), "dataset_stats: empty dataset");
  std::vector<double> runtimes;
  runtimes.reserve(points.size());
  for (const RawDataPoint& p : points) runtimes.push_back(p.runtime_us);
  DatasetStats stats;
  stats.num_points = points.size();
  stats.min_runtime_us = stats::min(runtimes);
  stats.max_runtime_us = stats::max(runtimes);
  stats.stddev_us = stats::stddev(runtimes);
  return stats;
}

}  // namespace pg::dataset
