// Corpus I/O bench (docs/FORMAT.md): generates a synthetic million-sample
// .pgds corpus and measures DatasetView, the one .pgds reader — cold-open
// time (v2 footer+index walk vs the v1 full offset scan over an
// index-stripped copy), random-access decode latency, reindex throughput
// (v1 copy back to v2), and epoch throughput (a full shuffled decode pass
// through the mmap-backed view, the out-of-core trainer's access pattern)
// versus the in-RAM loader's single-threaded baseline,
// load_sample_set(view, 1), which holds the whole corpus in memory (peak
// RSS about 1.1 GB at --samples 200000, so several GB at the default
// million). Every timed number is the median of 3 runs; the summary lands
// in BENCH_corpus_io.json.
//
// Modes:
//   --emit-fixture DIR   write the synthetic corpus pair (corpus.pgds as
//                        DatasetWriter writes it, and corpus_v1.pgds, the
//                        same bytes with the index stripped: format v1)
//                        into DIR and exit.
//   --fixture DIR        measure a previously emitted fixture.
//   default              emit into a temp dir, measure, delete.
//
// Knobs: --samples N (default 10^6; smoke scale drops to 20000),
// --json PATH (default BENCH_corpus_io.json next to the binary).
#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "io/binary.hpp"
#include "io/dataset_view.hpp"
#include "io/pgraph_io.hpp"
#include "model/encoding.hpp"
#include "support/rng.hpp"

namespace {

using namespace pg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Writes the synthetic corpus: `samples` records cycling through four tiny
/// kernel graphs, runtimes varied per record so the payload is not
/// literally constant. The v1 copy is the written file cut after its end
/// marker with the header version patched to 1 (the record stream is the
/// same under both versions); reindexing it back times the upgrade path.
struct FixtureTimings {
  double write_s = 0.0;
  double reindex_s = 0.0;
};

FixtureTimings emit_fixture(const std::filesystem::path& dir,
                            std::size_t samples) {
  std::filesystem::create_directories(dir);

  std::vector<model::TrainingSample> pool;
  for (int bound : {3, 9, 24, 80}) {
    std::string src = "void f(void) { for (int i = 0; i < " +
                      std::to_string(bound) +
                      "; i++) { double x = 1.0; } }";
    auto parsed = frontend::parse_source(src);
    graph::BuildOptions options;
    options.representation = graph::Representation::kParaGraph;
    model::TrainingSample s;
    s.graph =
        model::encode_graph(graph::build_graph(parsed.root(), options), 80.0);
    s.aux = {0.5f, 0.5f};
    s.app_id = bound;
    s.app_name = "synthetic";
    s.variant = "cpu";
    pool.push_back(std::move(s));
  }

  io::DatasetMeta meta;
  meta.platform = "bench";
  meta.representation = "ParaGraph";
  meta.seed = 1;
  meta.child_weight_scale = 80.0;
  meta.target_min = 0.0;
  meta.target_max = 1e6;
  meta.teams_min = 1.0;
  meta.teams_max = 1024.0;
  meta.threads_min = 1.0;
  meta.threads_max = 1024.0;

  FixtureTimings t;
  const auto v2_path = dir / "corpus.pgds";
  const auto v1_path = dir / "corpus_v1.pgds";
  {
    const auto start = Clock::now();
    std::ofstream os(v2_path, std::ios::binary);
    io::DatasetWriter writer(os, meta);
    pg::Rng rng(11);
    for (std::size_t i = 0; i < samples; ++i) {
      model::TrainingSample& s = pool[i % pool.size()];
      s.runtime_us = 1.0 + static_cast<double>(rng.index(1u << 20));
      s.target_scaled = s.runtime_us / 1e6;
      writer.append(s, i % 10 ? io::Split::kTrain : io::Split::kValidation);
    }
    writer.finish();
    t.write_s = seconds_since(start);
  }
  {
    // The 20-byte footer starts with the offset of the index section,
    // which begins right after the end marker.
    std::ifstream is(v2_path, std::ios::binary);
    is.seekg(-20, std::ios::end);
    unsigned char footer[8] = {};
    is.read(reinterpret_cast<char*>(footer), sizeof footer);
    std::filesystem::copy_file(
        v2_path, v1_path, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(v1_path, io::load_le64(footer));
    std::fstream v1(v1_path, std::ios::in | std::ios::out | std::ios::binary);
    v1.seekp(8);
    v1.put(1);  // u16 version, little-endian
    v1.put(0);
  }
  {
    const auto reindexed = dir / "corpus_reindexed.pgds";
    const auto start = Clock::now();
    io::reindex_dataset(v1_path.string(), reindexed.string());
    t.reindex_s = seconds_since(start);
    std::filesystem::remove(reindexed);
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchConfig config;
  const std::size_t samples = static_cast<std::size_t>(bench::int_option(
      argc, argv, "--samples",
      config.scale == RunScale::kSmoke ? 20'000 : 1'000'000, 1, 100'000'000));

  if (const char* dir = bench::option_value(argc, argv, "--emit-fixture")) {
    const FixtureTimings t = emit_fixture(dir, samples);
    std::printf("fixture: %zu samples -> %s (write %.2fs, reindex %.2fs)\n",
                samples, dir, t.write_s, t.reindex_s);
    return 0;
  }

  std::filesystem::path dir;
  bool owned = false;
  FixtureTimings timings;
  if (const char* fixture = bench::option_value(argc, argv, "--fixture")) {
    dir = fixture;
  } else {
    dir = std::filesystem::temp_directory_path() / "pg_bench_corpus_io";
    std::filesystem::remove_all(dir);
    owned = !bench::has_flag(argc, argv, "--keep");
    std::printf("generating %zu-sample corpus under %s ...\n", samples,
                dir.string().c_str());
    timings = emit_fixture(dir, samples);
  }
  const std::string v1_path = (dir / "corpus_v1.pgds").string();
  const std::string v2_path = (dir / "corpus.pgds").string();
  const auto v1_bytes = std::filesystem::file_size(v1_path);
  const auto v2_bytes = std::filesystem::file_size(v2_path);

  // --- cold open: v2 footer+index walk vs the v1 full offset scan.
  const double open_v2_us = bench::median_of(3, [&] {
    const auto start = Clock::now();
    io::DatasetView view(v2_path);
    (void)view.size();
    return seconds_since(start) * 1e6;
  });
  const double open_v1_scan_us = bench::median_of(3, [&] {
    const auto start = Clock::now();
    io::DatasetView view(v1_path);
    (void)view.size();
    return seconds_since(start) * 1e6;
  });

  io::DatasetView view(v2_path);
  const std::size_t n = view.size();
  model::TrainingSample sample;

  // --- random-access decode latency over 10k seeded indices.
  constexpr std::size_t kProbes = 10'000;
  const double random_decode_us = bench::median_of(3, [&] {
    std::mt19937_64 rng(5);
    const auto start = Clock::now();
    for (std::size_t k = 0; k < kProbes; ++k)
      view.decode(rng() % n, sample);
    return seconds_since(start) * 1e6 / kProbes;
  });

  // --- epoch throughput: a full shuffled decode pass through the mmap view
  // (what the out-of-core trainer's window fills do)...
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  const double epoch_s = bench::median_of(3, [&] {
    pg::Rng rng(17);
    rng.shuffle(order);
    const auto start = Clock::now();
    for (const std::size_t i : order) view.decode(i, sample);
    return seconds_since(start);
  });

  // ... versus the in-RAM loader's single-threaded baseline: open, check
  // and decode every record into one SampleSet before training can start.
  const double sequential_s = bench::median_of(3, [&] {
    const auto start = Clock::now();
    const io::StoredSampleSet stored =
        io::load_sample_set(io::DatasetView(v2_path), 1);
    return seconds_since(start);
  });

  const double epoch_rate = static_cast<double>(n) / epoch_s;
  const double sequential_rate = static_cast<double>(n) / sequential_s;

  bench::JsonReport report("corpus_io");
  report.add("scale", to_string(config.scale));
  report.add("samples", n);
  report.add("file_bytes_v1", static_cast<std::size_t>(v1_bytes));
  report.add("file_bytes_v2", static_cast<std::size_t>(v2_bytes));
  if (timings.write_s > 0.0) {
    report.add("write_s", timings.write_s);
    report.add("reindex_s", timings.reindex_s);
  }
  report.add("cold_open_v2_us", open_v2_us);
  report.add("cold_open_v1_scan_us", open_v1_scan_us);
  report.add("random_decode_us", random_decode_us);
  report.add("epoch_shuffled_samples_per_s", epoch_rate);
  report.add("sequential_baseline_samples_per_s", sequential_rate);
  report.add("epoch_vs_sequential", epoch_rate / sequential_rate);

  std::printf(
      "%zu samples (v1 %.1f MiB, v2 %.1f MiB)\n"
      "cold open: v2 %.1f us, v1 scan %.1f us\n"
      "random decode: %.3f us/record\n"
      "epoch (shuffled mmap): %.0f samples/s; sequential baseline: %.0f "
      "samples/s (%.2fx)\n",
      n, v1_bytes / 1048576.0, v2_bytes / 1048576.0, open_v2_us,
      open_v1_scan_us, random_decode_us, epoch_rate, sequential_rate,
      epoch_rate / sequential_rate);

  std::string json = bench::json_path_from_args(argc, argv);
  if (json.empty()) json = "BENCH_corpus_io.json";
  report.write(json);

  if (owned) std::filesystem::remove_all(dir);
  return 0;
}
