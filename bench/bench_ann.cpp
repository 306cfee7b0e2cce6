// bench_ann: the embedding-space ANN index + serve-time reply cache
// measurement (BENCH_ann.json).
//
// Part 1 — index quality/latency. A real-model embedding corpus is built by
// embedding the simulated suite through the InferenceEngine and expanding
// it to the target size with seeded Gaussian jitter (structure preserved,
// population scaled). For each corpus size N: nn-descent build time, then
// recall@10 of graph search against the brute-force exact reference over
// held-out jittered queries, and query p50 latency.
//
// Part 2 — serve cache. An in-process Server is loaded through the shared
// seeded RequestPicker under uniform and zipf-skewed traffic, cache off vs
// cache on (payload-bytes hits only, replies byte-identical), and the JSON
// records hit-rates and the graphs/s speedup. head_fraction records what a
// hit in embedding space would have saved: the FC head's share of predict.
//
// Modes:
//   --emit-fixture DIR  write DIR/ann.pgann (a small real-embedding index,
//                       round-trip verified) and run the smoke-sized
//                       measurement — the CI smoke path.
//   --json PATH         JSON report path (default BENCH_ann.json).
//
// Scale: PARAGRAPH_SCALE smoke keeps N small for CI; default measures the
// >= 50k-embedding corpus the acceptance gate asks for.
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "ann/ann_index.hpp"
#include "bench_common.hpp"
#include "model/checkpoint.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace pg;
using Clock = std::chrono::steady_clock;

const char* option_value(int argc, char** argv, const char* name) {
  for (int a = 1; a + 1 < argc; ++a)
    if (std::strcmp(argv[a], name) == 0) return argv[a + 1];
  return nullptr;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Fixed-init model + simulated suite corpus (the serve-fixture recipe):
/// deterministic, no training needed — embeddings are real forward passes.
struct AnnFixture {
  std::shared_ptr<model::ParaGraphModel> model;
  model::CheckpointScalers scalers;
  model::SampleSet set;
  tensor::Matrix base;  // [train-set size x hidden] real embeddings
};

AnnFixture build_fixture(const bench::BenchConfig& config) {
  AnnFixture fx;
  const sim::Platform platform = sim::all_platforms().front();

  dataset::GenerationConfig gen;
  gen.scale = config.scale;
  gen.seed = config.seed;
  const auto points = dataset::generate_dataset(platform, gen);

  dataset::SampleBuildConfig build;
  dataset::CorpusKey key;
  key.platform_name = platform.name;
  key.scale = config.scale;
  key.representation = build.representation;
  key.seed = config.seed;
  key.log_target = build.log_target;
  fx.set = dataset::load_or_build_sample_set(
      env_string("PARAGRAPH_CORPUS_DIR", ""), key, points, build);

  model::ModelConfig model_config;
  model_config.hidden_dim = config.hidden_dim;
  fx.model = std::make_shared<model::ParaGraphModel>(model_config);
  fx.scalers = model::CheckpointScalers::from_sample_set(fx.set);

  std::vector<model::EncodedGraph> graphs;
  graphs.reserve(fx.set.train.size());
  for (const model::TrainingSample& s : fx.set.train)
    graphs.push_back(s.graph);
  model::InferenceEngine engine(*fx.model);
  engine.embed_batch(graphs, fx.base);
  return fx;
}

/// Expands the base embeddings to `n` rows: row i interpolates between
/// base[i % B] and a seeded-random second base row, plus Gaussian jitter.
/// Interpolation keeps the population connected (pure per-row jitter would
/// make B disjoint near-duplicate clusters — a degenerate ANN corpus);
/// real embedding geometry, arbitrary size, fully deterministic.
tensor::Matrix jittered_corpus(const tensor::Matrix& base, std::size_t n,
                               std::uint64_t seed, float sigma) {
  tensor::Matrix out(n, base.cols());
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = base.row_span(i % base.rows());
    const auto mix = base.row_span(rng.index(base.rows()));
    const float t = static_cast<float>(rng.uniform());
    const auto dst = out.row_span(i);
    for (std::size_t j = 0; j < src.size(); ++j)
      dst[j] = src[j] + t * (mix[j] - src[j]) +
               sigma * static_cast<float>(rng.normal());
  }
  return out;
}

struct IndexPoint {
  std::size_t n = 0;
  double build_s = 0.0;
  double recall_at_10 = 0.0;
  double query_p50_us = 0.0;
};

IndexPoint measure_index(const tensor::Matrix& base, std::size_t n,
                         std::uint64_t seed) {
  IndexPoint point;
  point.n = n;
  const tensor::Matrix corpus = jittered_corpus(base, n, seed, 0.05f);
  const tensor::Matrix queries =
      jittered_corpus(base, std::min<std::size_t>(100, n), seed ^ 0xabcdefULL,
                      0.05f);

  const auto t0 = Clock::now();
  const ann::AnnIndex index =
      ann::AnnIndex::build(corpus, ann::AnnConfig{}, /*fingerprint=*/0);
  point.build_s = seconds_since(t0);

  const auto exact = index.brute_force_batch(queries, 10);
  std::vector<double> latencies_us;
  latencies_us.reserve(queries.rows());
  std::size_t found = 0;
  std::size_t wanted = 0;
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto t1 = Clock::now();
    const auto approx = index.search(queries.row_span(q), 10);
    latencies_us.push_back(seconds_since(t1) * 1e6);
    for (const ann::Neighbor& e : exact[q]) {
      ++wanted;
      for (const ann::Neighbor& a : approx)
        if (a.index == e.index) {
          ++found;
          break;
        }
    }
  }
  point.recall_at_10 =
      wanted > 0 ? static_cast<double>(found) / static_cast<double>(wanted)
                 : 0.0;
  std::sort(latencies_us.begin(), latencies_us.end());
  point.query_p50_us =
      latencies_us.empty() ? 0.0 : latencies_us[latencies_us.size() / 2];
  return point;
}

struct LoadPoint {
  double graphs_per_s = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Hammers an in-process server (cache per `cache_on`) with `clients`
/// threads drawing from the shared seeded picker at skew `zipf_s`.
LoadPoint measure_serve(const AnnFixture& fx,
                        const std::vector<std::string>& requests, bool cache_on,
                        double zipf_s, std::uint64_t seed, double seconds) {
  serve::ServeConfig config;
  config.workers = 2;
  config.cache = cache_on;
  serve::Server server(*fx.model, fx.scalers, config);
  server.start();

  constexpr std::size_t kClients = 4;
  const auto until =
      Clock::now() + std::chrono::microseconds(
                         static_cast<std::int64_t>(seconds * 1e6));
  std::vector<std::uint64_t> ok(kClients, 0);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      bench::RequestPicker picker(requests.size(), zipf_s,
                                  seed + 0x9e37 * (c + 1));
      try {
        serve::Client client(server.port(), 30000);
        while (Clock::now() < until) {
          const auto response =
              client.predict_until_served(requests[picker.next()]);
          if (response.has_value() &&
              response->kind == serve::FrameKind::kPredictReply)
            ++ok[c];
        }
      } catch (const serve::SocketError&) {
      }
    });
  for (std::thread& t : threads) t.join();
  const double elapsed = seconds_since(t0);
  server.stop();

  LoadPoint point;
  std::uint64_t total = 0;
  for (const std::uint64_t v : ok) total += v;
  point.graphs_per_s =
      elapsed > 0.0 ? static_cast<double>(total) / elapsed : 0.0;
  const serve::ServerStats stats = server.stats();
  point.hits = stats.cache_hits;
  point.misses = stats.cache_misses;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchConfig config;
  bench::print_header("ann index + reply cache", config);

  const char* fixture_dir = option_value(argc, argv, "--emit-fixture");
  const bool smoke = config.scale == RunScale::kSmoke || fixture_dir != nullptr;

  const AnnFixture fx = build_fixture(config);
  std::printf("base embeddings: %zu x %zu (train split, fixed-init model)\n",
              fx.base.rows(), fx.base.cols());

  if (fixture_dir != nullptr) {
    // Small real-embedding index, saved and round-trip verified: the CI
    // smoke that keeps the .pgann path honest on every push.
    const ann::AnnIndex index =
        ann::AnnIndex::build(fx.base, ann::AnnConfig{},
                             model::checkpoint_fingerprint(*fx.model));
    const std::string path = std::string(fixture_dir) + "/ann.pgann";
    index.save_file(path);
    const ann::AnnIndex loaded = ann::AnnIndex::load_file(
        path, model::checkpoint_fingerprint(*fx.model));
    if (loaded.size() != index.size() || loaded.k() != index.k()) {
      std::fprintf(stderr, "FAIL: %s did not round-trip\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu embeddings, k %zu)\n", path.c_str(),
                index.size(), index.k());
  }

  // Part 1: build/recall/latency vs corpus size.
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{512, 2048}
            : std::vector<std::size_t>{10'000, 50'000};
  std::vector<IndexPoint> points;
  for (const std::size_t n : sizes) {
    points.push_back(measure_index(fx.base, n, config.seed));
    const IndexPoint& p = points.back();
    std::printf("N=%-6zu build %.2fs  recall@10 %.3f  query p50 %.1f us\n",
                p.n, p.build_s, p.recall_at_10, p.query_p50_us);
  }

  // predict = embed + head: the head's share of the forward pass is all an
  // embedding-space cache hit could skip (decode and embed already ran).
  double head_fraction = 0.0;
  {
    std::vector<model::EncodedGraph> graphs;
    std::vector<std::array<float, 2>> aux;
    for (const model::TrainingSample& s : fx.set.train) {
      graphs.push_back(s.graph);
      aux.push_back(s.aux);
    }
    model::InferenceEngine engine(*fx.model);
    std::vector<double> out(graphs.size());
    tensor::Matrix pooled;
    const int reps = smoke ? 20 : 50;
    engine.predict_batch(graphs, aux, out);  // warm the thread state
    const auto tp = Clock::now();
    for (int r = 0; r < reps; ++r) engine.predict_batch(graphs, aux, out);
    const double predict_s = seconds_since(tp);
    const auto te = Clock::now();
    for (int r = 0; r < reps; ++r) engine.embed_batch(graphs, pooled);
    const double embed_s = seconds_since(te);
    head_fraction =
        predict_s > 0.0 ? std::max(0.0, 1.0 - embed_s / predict_s) : 0.0;
    std::printf("forward split: embed %.0f%% / head %.0f%% of predict\n",
                100.0 * (1.0 - head_fraction), 100.0 * head_fraction);
  }

  // Part 2: serve cache under uniform vs zipf traffic, cache off vs on.
  std::vector<std::string> requests;
  const std::size_t pool = std::min<std::size_t>(64, fx.set.train.size());
  requests.reserve(pool);
  for (std::size_t i = 0; i < pool; ++i)
    requests.push_back(serve::Client::sample_bytes(fx.set.train[i]));
  const double seconds = smoke ? 1.0 : 3.0;
  const double kZipfS = 1.1;
  const LoadPoint uniform_off =
      measure_serve(fx, requests, false, 0.0, config.seed, seconds);
  const LoadPoint uniform_on =
      measure_serve(fx, requests, true, 0.0, config.seed, seconds);
  const LoadPoint zipf_off =
      measure_serve(fx, requests, false, kZipfS, config.seed, seconds);
  const LoadPoint zipf_on =
      measure_serve(fx, requests, true, kZipfS, config.seed, seconds);
  const auto hit_rate = [](const LoadPoint& p) {
    const std::uint64_t total = p.hits + p.misses;
    return total > 0 ? static_cast<double>(p.hits) /
                           static_cast<double>(total)
                     : 0.0;
  };
  std::printf("uniform: %.0f graphs/s off, %.0f on (hit rate %.3f)\n",
              uniform_off.graphs_per_s, uniform_on.graphs_per_s,
              hit_rate(uniform_on));
  std::printf("zipf %.1f: %.0f graphs/s off, %.0f on (hit rate %.3f)\n",
              kZipfS, zipf_off.graphs_per_s, zipf_on.graphs_per_s,
              hit_rate(zipf_on));

  bench::JsonReport report("ann");
  report.add("scale", to_string(config.scale));
  report.add("hidden_dim", config.hidden_dim);
  report.add("base_embeddings", fx.base.rows());
  for (const IndexPoint& p : points) {
    std::string prefix = "n";  // += appends dodge GCC 12's bogus -Wrestrict
    prefix += std::to_string(p.n);
    prefix += "_";
    report.add(prefix + "build_s", p.build_s);
    report.add(prefix + "recall_at_10", p.recall_at_10);
    report.add(prefix + "query_p50_us", p.query_p50_us);
  }
  report.add("corpus_n", points.back().n);
  report.add("recall_at_10", points.back().recall_at_10);
  report.add("head_fraction", head_fraction);
  report.add("request_pool", pool);
  report.add("zipf_s", kZipfS);
  report.add("uniform_graphs_per_s_cache_off", uniform_off.graphs_per_s);
  report.add("uniform_graphs_per_s_cache_on", uniform_on.graphs_per_s);
  report.add("uniform_cache_hit_rate", hit_rate(uniform_on));
  report.add("zipf_graphs_per_s_cache_off", zipf_off.graphs_per_s);
  report.add("zipf_graphs_per_s_cache_on", zipf_on.graphs_per_s);
  report.add("zipf_cache_hit_rate", hit_rate(zipf_on));
  report.add("zipf_cache_speedup",
             zipf_off.graphs_per_s > 0.0
                 ? zipf_on.graphs_per_s / zipf_off.graphs_per_s
                 : 0.0);
  std::string json = bench::json_path_from_args(argc, argv);
  if (json.empty()) json = "BENCH_ann.json";
  if (!report.write(json)) return 1;

  if (points.back().recall_at_10 < 0.9) {
    std::fprintf(stderr, "FAIL: recall@10 %.3f < 0.9\n",
                 points.back().recall_at_10);
    return 1;
  }
  if (hit_rate(zipf_on) <= 0.0) {
    std::fprintf(stderr, "FAIL: zipf cache hit rate is zero\n");
    return 1;
  }
  if (zipf_on.graphs_per_s <= zipf_off.graphs_per_s) {
    std::fprintf(stderr, "FAIL: no cache speedup under zipf (%.0f <= %.0f)\n",
                 zipf_on.graphs_per_s, zipf_off.graphs_per_s);
    return 1;
  }
  return 0;
}
