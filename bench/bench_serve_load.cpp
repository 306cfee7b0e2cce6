// Load generator for paragraph-serve (docs/SERVING.md): C client threads
// hammer the daemon with predict requests for S seconds and the bench
// reports p50/p99 request latency and sustained graphs/s into
// BENCH_serve.json. Any failed request makes the bench exit non-zero, so CI
// uses it directly as the soak gate.
//
// Modes:
//   --emit-fixture DIR   write a deterministic serve fixture (serve.ckpt +
//                        req_<i>.psample request files, built from the
//                        simulated suite corpus — no golden-dir dependency)
//                        and exit.
//   default              start an in-process Server over the same fixture
//                        data (generated in memory) and load it.
//   --port P             skip the in-process server and load an externally
//                        started paragraph-serve daemon instead (start it
//                        with --checkpoint DIR/serve.ckpt from a fixture so
//                        request bytes and checkpoint match).
//
// Knobs: --fixture DIR (read request bytes from an emitted fixture),
// --clients C (default 4), --seconds S (default 5), --json PATH (default
// BENCH_serve.json next to the binary), --idle-connections N (hold N extra
// open-but-silent connections for the whole run — the reactor must carry
// them for free), --connections A,B,C (after the baseline, sweep concurrent
// connection counts: each count C gets min(C,8) driver threads round-robining
// one request per held connection for --sweep-seconds, recording per-count
// p50/p99/graphs_per_s and — in-process only — the reactor's write-coalescing
// ratio as flat cN_* JSON keys; each count an integer in [1, 100000]).
//
// Request mix: --uniform (the default) and --zipf <s> share one seeded
// picker (bench::RequestPicker; Zipf with s = 0 IS uniform), so the two
// modes differ only in skew. --zipf concentrates traffic on a few hot
// requests — the shape the serve-time reply cache is built for; s must be
// a finite number >= 0. The emitted JSON records the mix descriptor
// alongside the numbers. A bad --connections count or --zipf value exits 1
// naming the option, before any connection or server starts.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "io/pgraph_io.hpp"
#include "model/checkpoint.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace pg;

/// The deterministic serve corpus: simulated suite samples (first platform,
/// bench scale/seed) plus a fresh fixed-init model — the same recipe the
/// serve tests use with the golden corpus, but self-contained.
struct ServeFixture {
  model::ModelConfig model_config;
  std::shared_ptr<model::ParaGraphModel> model;
  model::CheckpointScalers scalers;
  std::vector<std::string> request_bytes;  // serialised .psample containers
};

ServeFixture build_fixture(const bench::BenchConfig& config,
                           std::size_t max_requests) {
  ServeFixture fx;
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
  const model::SampleSet set = dataset::load_or_build_sample_set(
      env_string("PARAGRAPH_CORPUS_DIR", ""), key, points, build);

  fx.model_config.hidden_dim = config.hidden_dim;
  fx.model = std::make_shared<model::ParaGraphModel>(fx.model_config);
  fx.scalers = model::CheckpointScalers::from_sample_set(set);

  const std::size_t count = std::min(max_requests, set.train.size());
  fx.request_bytes.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    fx.request_bytes.push_back(serve::Client::sample_bytes(set.train[i]));
  return fx;
}

int emit_fixture(const std::string& dir, const bench::BenchConfig& config) {
  const ServeFixture fx = build_fixture(config, 8);
  model::save_checkpoint_file(dir + "/serve.ckpt", *fx.model, fx.scalers);
  for (std::size_t i = 0; i < fx.request_bytes.size(); ++i) {
    const std::string path = dir + "/req_" + std::to_string(i) + ".psample";
    std::ofstream os(path, std::ios::binary);
    os.write(fx.request_bytes[i].data(),
             static_cast<std::streamsize>(fx.request_bytes[i].size()));
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
  }
  std::printf("wrote %s/serve.ckpt and %zu request files\n", dir.c_str(),
              fx.request_bytes.size());
  return 0;
}

std::vector<std::string> read_fixture_requests(const std::string& dir) {
  std::vector<std::string> requests;
  for (std::size_t i = 0;; ++i) {
    std::ifstream is(dir + "/req_" + std::to_string(i) + ".psample",
                     std::ios::binary);
    if (!is) break;
    std::ostringstream buffer;
    buffer << is.rdbuf();
    requests.push_back(buffer.str());
  }
  return requests;
}

struct ClientTotals {
  std::vector<double> latencies_us;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t busy_retries = 0;
};

void run_client(std::uint16_t port, const std::vector<std::string>& requests,
                bench::RequestPicker picker,
                std::chrono::steady_clock::time_point until,
                ClientTotals& totals) {
  try {
    serve::Client client(port, 30000);
    while (std::chrono::steady_clock::now() < until) {
      const std::string& request = requests[picker.next()];
      const auto t0 = std::chrono::steady_clock::now();
      const auto response =
          client.predict_until_served(request, &totals.busy_retries);
      const auto t1 = std::chrono::steady_clock::now();
      if (!response.has_value() ||
          response->kind != serve::FrameKind::kPredictReply) {
        ++totals.errors;
        continue;
      }
      ++totals.ok;
      totals.latencies_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
  } catch (const serve::SocketError& e) {
    std::fprintf(stderr, "client: %s\n", e.what());
    ++totals.errors;
  }
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

/// One point of the connection-count sweep.
struct SweepPoint {
  long long connections = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t busy_retries = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double graphs_per_s = 0.0;
  double frames_per_writev = 0.0;  // reactor coalescing; 0 = external target
};

/// Holds `conns` open connections with min(conns, 8) driver threads, each
/// round-robining one blocking request per held connection — many mostly-
/// idle sockets, few requests in flight: exactly the shape the reactor
/// exists for.
SweepPoint run_connection_count(std::uint16_t port,
                                const std::vector<std::string>& requests,
                                double zipf_s, std::uint64_t seed,
                                long long conns, long long sweep_seconds,
                                serve::Server* server) {
  SweepPoint point;
  point.connections = conns;
  serve::ServerStats before{};
  if (server != nullptr) before = server->stats();

  const std::size_t drivers =
      static_cast<std::size_t>(std::min<long long>(conns, 8));
  std::vector<ClientTotals> totals(drivers);
  // Connect barrier: every driver opens its share of connections before the
  // clock starts, so connection-setup time (significant at c=1024) never
  // counts against the measured window.
  std::atomic<std::size_t> connected{0};
  std::atomic<bool> go{false};
  std::chrono::steady_clock::time_point started{};
  std::chrono::steady_clock::time_point until{};
  std::vector<std::thread> threads;
  threads.reserve(drivers);
  for (std::size_t d = 0; d < drivers; ++d) {
    const auto share = static_cast<std::size_t>(
        conns / static_cast<long long>(drivers) +
        (static_cast<long long>(d) < conns % static_cast<long long>(drivers)
             ? 1
             : 0));
    threads.emplace_back([&, d, share] {
      try {
        std::vector<std::unique_ptr<serve::Client>> owned;
        owned.reserve(share);
        try {
          for (std::size_t i = 0; i < share; ++i)
            owned.push_back(std::make_unique<serve::Client>(port, 30000));
        } catch (const serve::SocketError& e) {
          std::fprintf(stderr, "sweep driver connect: %s\n", e.what());
          ++totals[d].errors;
          connected.fetch_add(1);
          return;
        }
        connected.fetch_add(1);
        while (!go.load(std::memory_order_acquire))
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        bench::RequestPicker picker(requests.size(), zipf_s,
                                    seed + 0x51ab * (d + 1));
        while (std::chrono::steady_clock::now() < until) {
          for (auto& client : owned) {
            if (std::chrono::steady_clock::now() >= until) break;
            const std::string& request = requests[picker.next()];
            const auto t0 = std::chrono::steady_clock::now();
            const auto response = client->predict_until_served(
                request, &totals[d].busy_retries);
            const auto t1 = std::chrono::steady_clock::now();
            if (!response.has_value() ||
                response->kind != serve::FrameKind::kPredictReply) {
              ++totals[d].errors;
              continue;
            }
            ++totals[d].ok;
            totals[d].latencies_us.push_back(
                std::chrono::duration<double, std::micro>(t1 - t0).count());
          }
        }
      } catch (const serve::SocketError& e) {
        std::fprintf(stderr, "sweep driver: %s\n", e.what());
        ++totals[d].errors;
      }
    });
  }
  while (connected.load() < drivers)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  started = std::chrono::steady_clock::now();
  until = started + std::chrono::seconds(sweep_seconds);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  std::vector<double> latencies;
  for (ClientTotals& t : totals) {
    latencies.insert(latencies.end(), t.latencies_us.begin(),
                     t.latencies_us.end());
    point.ok += t.ok;
    point.errors += t.errors;
    point.busy_retries += t.busy_retries;
  }
  std::sort(latencies.begin(), latencies.end());
  point.p50_us = percentile(latencies, 0.50);
  point.p99_us = percentile(latencies, 0.99);
  point.graphs_per_s =
      elapsed_s > 0.0 ? static_cast<double>(point.ok) / elapsed_s : 0.0;
  if (server != nullptr) {
    const serve::ServerStats after = server->stats();
    const std::uint64_t writev = after.writev_calls - before.writev_calls;
    const std::uint64_t frames = after.reply_frames - before.reply_frames;
    point.frames_per_writev =
        writev > 0 ? static_cast<double>(frames) / static_cast<double>(writev)
                   : 0.0;
  }
  return point;
}

/// Best-effort RLIMIT_NOFILE raise so 1024-connection sweeps (two fds per
/// loopback connection when the server is in-process) fit under default
/// shell limits.
void raise_fd_limit(rlim_t want) {
  rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0 || rl.rlim_cur >= want) return;
  rlimit raised = rl;
  raised.rlim_cur = std::min<rlim_t>(want, rl.rlim_max);
  ::setrlimit(RLIMIT_NOFILE, &raised);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchConfig config;

  using bench::int_option;
  using bench::option_value;
  if (const char* dir = option_value(argc, argv, "--emit-fixture"))
    return emit_fixture(dir, config);

  const std::int64_t clients = int_option(argc, argv, "--clients", 4, 1, 4096);
  const std::int64_t seconds = int_option(argc, argv, "--seconds", 5, 1, 86'400);
  const char* fixture_dir = option_value(argc, argv, "--fixture");
  const std::int64_t external_port =
      int_option(argc, argv, "--port", 0, 0, 65535);
  const std::int64_t idle_connections =
      int_option(argc, argv, "--idle-connections", 0, 0, 100'000);
  const std::int64_t sweep_seconds =
      int_option(argc, argv, "--sweep-seconds", 3, 1, 3600);
  // The sweep's counts and the request mix define what the run measures,
  // so a bad value is an error (exit 1, before any connection), never
  // replaced by a default.
  std::vector<long long> sweep_counts;
  std::string sweep_descriptor;
  if (const char* list = option_value(argc, argv, "--connections")) {
    sweep_descriptor = list;
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (item.empty()) continue;
      const auto count =
          exact_int_in_range("--connections", item, 1, 100'000);
      if (!count) return 1;
      sweep_counts.push_back(*count);
    }
  }
  {
    long long max_conns = idle_connections + clients;
    for (const long long c : sweep_counts)
      max_conns = std::max(max_conns, c + idle_connections);
    raise_fd_limit(static_cast<rlim_t>(2 * max_conns + 256));
  }
  // --uniform is Zipf with s = 0 — both flags feed the same seeded picker.
  double zipf_s = 0.0;
  if (const char* s = option_value(argc, argv, "--zipf")) {
    const std::optional<double> parsed = parse_finite(s);
    if (!parsed || *parsed < 0.0) {
      std::fprintf(stderr, "paragraph: --zipf=%s is not a finite number >= 0\n",
                   s);
      return 1;
    }
    zipf_s = *parsed;
  }
  if (bench::has_flag(argc, argv, "--uniform")) zipf_s = 0.0;

  bench::print_header("paragraph-serve load", config);

  // Request bytes: from an emitted fixture, or the same data in memory.
  std::optional<ServeFixture> fx;
  std::vector<std::string> requests;
  if (fixture_dir != nullptr) {
    requests = read_fixture_requests(fixture_dir);
    if (requests.empty()) {
      std::fprintf(stderr, "no req_*.psample under %s\n", fixture_dir);
      return 1;
    }
  } else {
    fx = build_fixture(config, 8);
    requests = fx->request_bytes;
  }

  // The target: an external daemon, or an in-process server over the
  // fixture model (env knobs PARAGRAPH_SERVE_* still apply).
  std::unique_ptr<serve::Server> server;
  std::uint16_t port = static_cast<std::uint16_t>(external_port);
  if (external_port == 0) {
    if (!fx) fx = build_fixture(config, 1);  // model + scalers only
    server = std::make_unique<serve::Server>(*fx->model, fx->scalers,
                                             serve::serve_config_from_env());
    server->start();
    port = server->port();
  }

  // The idle herd: held open and silent across the baseline AND the sweep.
  // With the reactor these cost per-connection state, not threads; any
  // latency they add to the loaded clients shows up in the numbers below.
  std::vector<serve::Socket> idle_conns;
  idle_conns.reserve(static_cast<std::size_t>(idle_connections));
  for (std::int64_t i = 0; i < idle_connections; ++i)
    idle_conns.push_back(serve::connect_loopback(port));

  const auto started = std::chrono::steady_clock::now();
  const auto until = started + std::chrono::seconds(seconds);
  std::vector<ClientTotals> totals(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(totals.size());
  for (std::size_t c = 0; c < totals.size(); ++c)
    threads.emplace_back([&, c] {
      // Per-client derived seed: deterministic, distinct streams.
      run_client(port, requests,
                 bench::RequestPicker(requests.size(), zipf_s,
                                      config.seed + 0x9e37 * (c + 1)),
                 until, totals[c]);
    });
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();

  std::vector<double> latencies;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t busy_retries = 0;
  for (ClientTotals& t : totals) {
    latencies.insert(latencies.end(), t.latencies_us.begin(),
                     t.latencies_us.end());
    ok += t.ok;
    errors += t.errors;
    busy_retries += t.busy_retries;
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  const double throughput = elapsed_s > 0.0 ? static_cast<double>(ok) / elapsed_s : 0.0;

  std::printf("clients=%lld seconds=%lld target=%s mix=%s(s=%g)\n",
              static_cast<long long>(clients), static_cast<long long>(seconds),
              external_port != 0 ? "external daemon" : "in-process server",
              zipf_s == 0.0 ? "uniform" : "zipf", zipf_s);
  std::printf("requests ok        %llu\n", static_cast<unsigned long long>(ok));
  std::printf("errors             %llu\n",
              static_cast<unsigned long long>(errors));
  std::printf("busy retries       %llu\n",
              static_cast<unsigned long long>(busy_retries));
  std::printf("latency p50        %.1f us\n", p50);
  std::printf("latency p99        %.1f us\n", p99);
  std::printf("sustained          %.1f graphs/s\n", throughput);

  // Connection-count sweep (after the baseline so the 4-client numbers stay
  // comparable across runs). The server keeps running between counts; the
  // per-count reactor counters are deltas.
  std::vector<SweepPoint> sweep;
  sweep.reserve(sweep_counts.size());
  for (const long long count : sweep_counts) {
    const SweepPoint point = run_connection_count(
        port, requests, zipf_s, config.seed, count, sweep_seconds,
        server.get());
    std::printf("sweep c=%-5lld     p50 %.1f us  p99 %.1f us  %.1f graphs/s"
                "  ok %llu  coalesce %.2f frames/write\n",
                point.connections, point.p50_us, point.p99_us,
                point.graphs_per_s,
                static_cast<unsigned long long>(point.ok),
                point.frames_per_writev);
    errors += point.errors;
    sweep.push_back(point);
  }

  serve::ServerStats server_stats;
  if (server != nullptr) {
    server->stop();
    server_stats = server->stats();
    std::printf("server batches     %llu (%.2f graphs/batch)\n",
                static_cast<unsigned long long>(server_stats.batches),
                server_stats.batches > 0
                    ? static_cast<double>(server_stats.requests_ok) /
                          static_cast<double>(server_stats.batches)
                    : 0.0);
    if (server->config().cache)
      std::printf("server cache       %llu hits / %llu misses\n",
                  static_cast<unsigned long long>(server_stats.cache_hits),
                  static_cast<unsigned long long>(server_stats.cache_misses));
  }

  bench::JsonReport report("serve_load");
  report.add("scale", to_string(config.scale));
  report.add("mode", external_port != 0 ? "external" : "in-process");
  report.add("request_mix", zipf_s == 0.0 ? "uniform" : "zipf");
  report.add("zipf_s", zipf_s);
  report.add("clients", static_cast<int>(clients));
  report.add("seconds", static_cast<int>(seconds));
  report.add("requests_ok", static_cast<std::size_t>(ok));
  report.add("errors", static_cast<std::size_t>(errors));
  report.add("busy_retries", static_cast<std::size_t>(busy_retries));
  report.add("latency_p50_us", p50);
  report.add("latency_p99_us", p99);
  report.add("graphs_per_s", throughput);
  report.add("idle_connections", static_cast<int>(idle_connections));
  if (!sweep.empty()) {
    report.add("sweep_connections", sweep_descriptor);
    report.add("sweep_seconds", static_cast<int>(sweep_seconds));
    for (const SweepPoint& point : sweep) {
      std::string prefix = "c";  // += appends dodge GCC 12's bogus -Wrestrict
      prefix += std::to_string(point.connections);
      prefix += "_";
      report.add(prefix + "requests_ok", static_cast<std::size_t>(point.ok));
      report.add(prefix + "p50_us", point.p50_us);
      report.add(prefix + "p99_us", point.p99_us);
      report.add(prefix + "graphs_per_s", point.graphs_per_s);
      report.add(prefix + "frames_per_writev", point.frames_per_writev);
    }
  }
  if (server != nullptr) {
    report.add("reply_frames",
               static_cast<std::size_t>(server_stats.reply_frames));
    report.add("writev_calls",
               static_cast<std::size_t>(server_stats.writev_calls));
    report.add("read_gated", static_cast<std::size_t>(server_stats.read_gated));
    report.add("accepts_dropped",
               static_cast<std::size_t>(server_stats.accepts_dropped));
  }
  if (server != nullptr) {
    report.add("cache_enabled", server->config().cache ? 1 : 0);
    report.add("cache_hits", static_cast<std::size_t>(server_stats.cache_hits));
    report.add("cache_misses",
               static_cast<std::size_t>(server_stats.cache_misses));
  }
  std::string json = bench::json_path_from_args(argc, argv);
  if (json.empty()) json = "BENCH_serve.json";
  if (!report.write(json)) return 1;

  if (errors > 0) {
    std::fprintf(stderr, "FAIL: %llu request errors\n",
                 static_cast<unsigned long long>(errors));
    return 1;
  }
  if (ok == 0) {
    std::fprintf(stderr, "FAIL: no successful requests\n");
    return 1;
  }
  return 0;
}
