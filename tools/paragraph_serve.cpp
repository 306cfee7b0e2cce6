// paragraph-serve: long-lived prediction daemon over the serve protocol
// (docs/SERVING.md). Loads a checkpoint once, listens on loopback TCP, and
// coalesces concurrent predict requests into fused InferenceEngine batches
// through a bounded admission queue and a dynamic batching window.
//
// Shutdown: SIGINT/SIGTERM (or --duration-s for scripted soak runs) drains
// the queue gracefully and prints the final service counters. Exit codes:
// 0 clean shutdown, 1 startup/runtime failure, 2 usage error.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
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
  std::fprintf(stderr, "usage: paragraph-serve --checkpoint <file> [options]"
               "\n\nA flag beats its variable, which beats the default; "
               "docs/SERVING.md has more.\n\n");
  const serve::ServeConfig defaults;
  for (const serve::ServeKnob& k : serve::serve_knobs()) {
    std::string head = "  ";
    if (k.flag != nullptr) {
      head += k.flag;
      if (k.arg != nullptr) head = head + " " + k.arg;
      if (k.env != nullptr) head += ", ";
    }
    if (k.env != nullptr) head += k.env;
    if (k.get != nullptr)
      head += ": default " + std::to_string(k.get(defaults)) + ", range [" +
              std::to_string(k.lo) + ", " + std::to_string(k.hi) + "]";
    std::fprintf(stderr, "%s\n      %s\n", head.c_str(), k.help);
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const serve::ServeConfig serve_config =
        serve::read_serve_config({argv + 1, argv + argc});
    if (serve_config.checkpoint.empty()) return usage();

    if (!serve_config.simd.empty()) {
      const auto parsed = tensor::simd::level_from_name(serve_config.simd);
      if (!parsed) {
        std::fprintf(stderr, "unknown SIMD level '%s' (scalar|sse2|avx2)\n",
                     serve_config.simd.c_str());
        return 2;
      }
      tensor::simd::set_active_level(*parsed);
    }

    model::ModelConfig config;
    config.hidden_dim = serve_config.hidden_dim;
    model::ParaGraphModel model(config);
    const model::CheckpointScalers scalers =
        model::load_checkpoint_file(serve_config.checkpoint, model);

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
    if (!serve_config.port_file.empty()) {
      std::ofstream os(serve_config.port_file);
      os << server.port() << "\n";
      if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     serve_config.port_file.c_str());
        return 1;
      }
    }

    const auto started = std::chrono::steady_clock::now();
    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (serve_config.duration_s > 0 &&
          std::chrono::steady_clock::now() - started >=
              std::chrono::seconds(serve_config.duration_s))
        break;
    }

    server.stop();
    const serve::ServerStats stats = server.stats();
    const auto n = [](std::uint64_t v) { return (unsigned long long)v; };
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    std::printf("paragraph-serve: drained and stopped — %llu connections, "
                "%llu predictions in %llu batches, %llu errors, %llu busy, "
                "%llu pings\n",
                n(stats.connections), n(stats.requests_ok), n(stats.batches),
                n(stats.requests_error), n(stats.busy_rejected),
                n(stats.pings));
    std::printf("paragraph-serve: reactor — %llu reply frames in %llu "
                "gathered writes (%.2f frames/write), %llu reads gated, "
                "%llu idle closes, %llu accepts dropped\n",
                n(stats.reply_frames), n(stats.writev_calls),
                ratio(stats.reply_frames, stats.writev_calls),
                n(stats.read_gated), n(stats.idle_closed),
                n(stats.accepts_dropped));
    std::printf("paragraph-serve: scheduler — %llu fused chunks, %llu node "
                "rows (%.1f rows/chunk), %llu intra-parallel chunks\n",
                n(stats.sched_chunks), n(stats.sched_rows),
                ratio(stats.sched_rows, stats.sched_chunks),
                n(stats.sched_intra_chunks));
    if (serve_config.cache)
      std::printf("paragraph-serve: cache — %llu hits, %llu misses, "
                  "%llu evictions (cap %zu)\n",
                  n(stats.cache_hits), n(stats.cache_misses),
                  n(stats.cache_evictions), serve_config.cache_capacity);
    return 0;
  } catch (const std::invalid_argument& e) {  // an option not in the table
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
