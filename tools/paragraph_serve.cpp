// paragraph-serve: long-lived prediction daemon over the serve protocol
// (docs/SERVING.md). Loads a checkpoint once, listens on loopback TCP, and
// coalesces concurrent predict requests into fused InferenceEngine batches
// through a bounded admission queue and a dynamic batching window.
//
// Shutdown: SIGINT/SIGTERM (or --duration-s for scripted soak runs) drains
// the queue gracefully and prints the final service counters. Exit codes:
// 0 clean shutdown, 1 startup/runtime failure, 2 usage error.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#include "model/checkpoint.hpp"
#include "model/paragraph_model.hpp"
#include "serve/server.hpp"
#include "tensor/simd.hpp"

namespace {

using namespace pg;

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

int usage() {
  std::fprintf(stderr, R"(usage: paragraph-serve --checkpoint <ckpt> [options]

  --checkpoint <file>   trained model checkpoint (required)
  --hidden N            model hidden dim (default 24; must match the ckpt)
  --port P              listen port on 127.0.0.1 (default 0 = ephemeral)
  --port-file <file>    write the bound port as one line (for scripts)
  --workers N           InferenceEngine shards (default 2)
  --io-threads N        epoll reactor threads (default 0 = min(4, cores))
  --queue-depth N       admission queue bound (default 256)
  --batch-max N         batching window flushes at N graphs (default 16)
  --window-us T         ...or after T microseconds (default 200)
  --idle-timeout-ms T   reactor idle-connection timeout (default 0 = none)
  --duration-s S        exit after S seconds (default 0 = run until signal)
  --threads N           OpenMP threads per worker's engine shard (default 1,
                        or PARAGRAPH_THREADS); the daemon runs io threads +
                        workers x N threads
  --simd LEVEL          kernel dispatch: scalar|sse2|avx2 (PARAGRAPH_SIMD)
  --cache               enable the reply cache: byte-identical repeat
                        requests answer from memory (default off)
  --cache-cap N         cache capacity before LRU eviction (default 1024)

  Environment defaults (overridden by the flags above): PARAGRAPH_SERVE_PORT,
  PARAGRAPH_SERVE_WORKERS, PARAGRAPH_SERVE_IO_THREADS, PARAGRAPH_SERVE_QUEUE,
  PARAGRAPH_SERVE_BATCH, PARAGRAPH_SERVE_WINDOW_US,
  PARAGRAPH_SERVE_IDLE_TIMEOUT_MS, PARAGRAPH_SERVE_CONN_INFLIGHT,
  PARAGRAPH_SERVE_WRITEQ_CAP, PARAGRAPH_SERVE_CACHE,
  PARAGRAPH_SERVE_CACHE_CAP.
)");
  return 2;
}

/// The value-taking options of usage(); `--cache` is the only bare flag.
constexpr std::string_view kValueOptions[] = {
    "--checkpoint", "--hidden",          "--port",       "--port-file",
    "--workers",    "--io-threads",      "--queue-depth", "--batch-max",
    "--window-us",  "--idle-timeout-ms", "--duration-s", "--threads",
    "--simd",       "--cache-cap"};

/// True when every argument is an option from usage() and each
/// value-taking one has a value after it, so a stale or misspelt option
/// fails loudly instead of being ignored.
bool options_valid(int argc, char** argv) {
  for (int a = 1; a < argc; ++a) {
    const std::string_view arg = argv[a];
    if (arg == "--cache") continue;
    if (std::find(std::begin(kValueOptions), std::end(kValueOptions), arg) ==
        std::end(kValueOptions)) {
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[a]);
      return false;
    }
    if (++a == argc) {
      std::fprintf(stderr, "error: option %s needs a value\n", argv[a - 1]);
      return false;
    }
  }
  return true;
}

/// "--flag value" scanner (the CLI's Args helper is private to it; the
/// daemon's surface is small enough for a direct loop).
const char* option_value(int argc, char** argv, const char* name) {
  for (int a = 1; a + 1 < argc; ++a)
    if (std::string(argv[a]) == name) return argv[a + 1];
  return nullptr;
}

std::int64_t int_option(int argc, char** argv, const char* name,
                        std::int64_t fallback) {
  const char* value = option_value(argc, argv, name);
  return value != nullptr ? std::stoll(value) : fallback;
}

bool flag_option(int argc, char** argv, const char* name) {
  for (int a = 1; a < argc; ++a)
    if (std::string(argv[a]) == name) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (!options_valid(argc, argv)) return usage();
    const char* ckpt_path = option_value(argc, argv, "--checkpoint");
    if (ckpt_path == nullptr) return usage();

    if (const char* level = option_value(argc, argv, "--simd")) {
      const auto parsed = tensor::simd::level_from_name(level);
      if (!parsed) {
        std::fprintf(stderr, "unknown SIMD level '%s' (scalar|sse2|avx2)\n",
                     level);
        return 2;
      }
      tensor::simd::set_active_level(*parsed);
    }

    model::ModelConfig config;
    config.hidden_dim =
        static_cast<std::size_t>(int_option(argc, argv, "--hidden", 24));
    model::ParaGraphModel model(config);
    const model::CheckpointScalers scalers =
        model::load_checkpoint_file(ckpt_path, model);

    serve::ServeConfig serve_config = serve::serve_config_from_env();
    serve_config.port = static_cast<std::uint16_t>(
        int_option(argc, argv, "--port", serve_config.port));
    serve_config.workers = static_cast<std::size_t>(int_option(
        argc, argv, "--workers",
        static_cast<std::int64_t>(std::max<std::size_t>(serve_config.workers, 2))));
    serve_config.io_threads = static_cast<std::size_t>(
        int_option(argc, argv, "--io-threads",
                   static_cast<std::int64_t>(serve_config.io_threads)));
    serve_config.engine_threads =
        static_cast<std::size_t>(std::max<std::int64_t>(
            1, int_option(argc, argv, "--threads",
                          static_cast<std::int64_t>(
                              serve_config.engine_threads))));
    serve_config.queue_depth = static_cast<std::size_t>(
        int_option(argc, argv, "--queue-depth",
                   static_cast<std::int64_t>(serve_config.queue_depth)));
    serve_config.batch_max = static_cast<std::size_t>(
        int_option(argc, argv, "--batch-max",
                   static_cast<std::int64_t>(serve_config.batch_max)));
    serve_config.batch_window_us = static_cast<std::uint32_t>(
        int_option(argc, argv, "--window-us", serve_config.batch_window_us));
    serve_config.idle_timeout_ms = static_cast<int>(int_option(
        argc, argv, "--idle-timeout-ms", serve_config.idle_timeout_ms));
    if (flag_option(argc, argv, "--cache")) serve_config.cache = true;
    serve_config.cache_capacity = static_cast<std::size_t>(
        int_option(argc, argv, "--cache-cap",
                   static_cast<std::int64_t>(serve_config.cache_capacity)));
    const std::int64_t duration_s = int_option(argc, argv, "--duration-s", 0);

    serve::Server server(model, scalers, serve_config);
    server.start();

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    std::printf("paragraph-serve: listening on 127.0.0.1:%u (simd %s, "
                "%zu io threads, %zu workers, queue %zu, batch %zu@%uus, "
                "cache %s)\n",
                server.port(),
                tensor::simd::level_name(tensor::simd::active_level()),
                server.io_thread_count(), serve_config.workers,
                serve_config.queue_depth, serve_config.batch_max,
                serve_config.batch_window_us,
                serve_config.cache ? "on" : "off");
    std::fflush(stdout);
    if (const char* port_file = option_value(argc, argv, "--port-file")) {
      std::ofstream os(port_file);
      os << server.port() << "\n";
      if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n", port_file);
        return 1;
      }
    }

    const auto started = std::chrono::steady_clock::now();
    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (duration_s > 0 && std::chrono::steady_clock::now() - started >=
                                std::chrono::seconds(duration_s))
        break;
    }

    server.stop();
    const serve::ServerStats stats = server.stats();
    std::printf("paragraph-serve: drained and stopped — %llu connections, "
                "%llu predictions in %llu batches, %llu errors, %llu busy, "
                "%llu pings\n",
                static_cast<unsigned long long>(stats.connections),
                static_cast<unsigned long long>(stats.requests_ok),
                static_cast<unsigned long long>(stats.batches),
                static_cast<unsigned long long>(stats.requests_error),
                static_cast<unsigned long long>(stats.busy_rejected),
                static_cast<unsigned long long>(stats.pings));
    const double coalesce = stats.writev_calls > 0
                                ? static_cast<double>(stats.reply_frames) /
                                      static_cast<double>(stats.writev_calls)
                                : 0.0;
    std::printf("paragraph-serve: reactor — %llu reply frames in %llu "
                "gathered writes (%.2f frames/write), %llu reads gated, "
                "%llu idle closes, %llu accepts dropped\n",
                static_cast<unsigned long long>(stats.reply_frames),
                static_cast<unsigned long long>(stats.writev_calls), coalesce,
                static_cast<unsigned long long>(stats.read_gated),
                static_cast<unsigned long long>(stats.idle_closed),
                static_cast<unsigned long long>(stats.accepts_dropped));
    const double rows_per_chunk =
        stats.sched_chunks > 0 ? static_cast<double>(stats.sched_rows) /
                                     static_cast<double>(stats.sched_chunks)
                               : 0.0;
    std::printf("paragraph-serve: scheduler — %llu fused chunks, %llu node "
                "rows (%.1f rows/chunk), %llu intra-parallel chunks\n",
                static_cast<unsigned long long>(stats.sched_chunks),
                static_cast<unsigned long long>(stats.sched_rows),
                rows_per_chunk,
                static_cast<unsigned long long>(stats.sched_intra_chunks));
    if (serve_config.cache)
      std::printf("paragraph-serve: cache — %llu hits, %llu misses, "
                  "%llu evictions (cap %zu)\n",
                  static_cast<unsigned long long>(stats.cache_hits),
                  static_cast<unsigned long long>(stats.cache_misses),
                  static_cast<unsigned long long>(stats.cache_evictions),
                  serve_config.cache_capacity);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
