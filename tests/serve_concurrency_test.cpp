// Concurrency contract of paragraph-serve: with M client threads hammering
// the daemon, the batching window coalesces requests into arbitrary fused
// batches across worker shards — and every reply must still be bitwise
// identical to the single-threaded in-process answer. Also exercises the
// backpressure path: a tiny admission queue under a burst must answer
// kBusyReply at least once, and clients that retry still get the exact
// prediction.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/dataset_view.hpp"
#include "io/pgraph_io.hpp"
#include "model/checkpoint.hpp"
#include "model/engine.hpp"
#include "model/paragraph_model.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"

#ifndef PG_GOLDEN_DIR
#error "PG_GOLDEN_DIR must point at tests/golden"
#endif

namespace pg {
namespace {

const char* kGoldenNames[] = {"matvec_cpu", "matmul_gpu_collapse_mem",
                              "corr_gpu_mem", "gauss_seidel_cpu_collapse"};

std::string golden_path(const std::string& name) {
  return std::string(PG_GOLDEN_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(is)) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

struct Fixture {
  model::ModelConfig config;
  std::unique_ptr<model::ParaGraphModel> model;
  model::CheckpointScalers scalers;
  std::vector<std::string> psample_bytes;   // wire payload per golden sample
  std::vector<double> expected_scaled;      // single-threaded predict_one
};

void build_fixture(Fixture& fx) {
  const io::StoredSampleSet stored =
      io::load_sample_set(io::DatasetView(golden_path("corpus.pgds")));
  fx.scalers = model::CheckpointScalers::from_sample_set(stored.set);
  fx.model = std::make_unique<model::ParaGraphModel>(fx.config);

  model::InferenceEngine engine(*fx.model);
  for (const char* name : kGoldenNames) {
    const std::string path = golden_path(std::string(name) + ".psample");
    const model::TrainingSample sample = io::read_sample_file(path);
    fx.psample_bytes.push_back(slurp(path));
    fx.expected_scaled.push_back(engine.predict_one(sample.graph, sample.aux));
  }
}

TEST(ServeConcurrency, RepliesBitwiseEqualSingleThreadedUnderLoad) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(build_fixture(fx));

  // Small batching knobs so the window genuinely coalesces across clients,
  // two worker shards so batches interleave across engines.
  serve::ServeConfig config;
  config.workers = 2;
  config.batch_max = 8;
  config.batch_window_us = 500;
  config.queue_depth = 64;
  serve::Server server(*fx.model, fx.scalers, config);
  server.start();

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 32;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      serve::Client client(server.port(), 20000);
      for (int r = 0; r < kRequestsPerThread; ++r) {
        // Every thread walks the samples in a different order.
        const std::size_t which =
            static_cast<std::size_t>(t + r) % std::size(kGoldenNames);
        const auto response =
            client.predict_until_served(fx.psample_bytes[which]);
        if (!response.has_value() ||
            response->kind != serve::FrameKind::kPredictReply) {
          failures.fetch_add(1);
          continue;
        }
        if (std::memcmp(&response->prediction.scaled,
                        &fx.expected_scaled[which], 8) != 0)
          mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "dynamic batching changed prediction bits under concurrency";

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_ok,
            static_cast<std::uint64_t>(kThreads * kRequestsPerThread));
  // Coalescing actually happened: strictly fewer fused batches than requests
  // (with a 500us window and 4 threads in flight this is overwhelmingly
  // certain; equality would mean every batch held a single graph).
  EXPECT_LT(stats.batches, stats.requests_ok);
  server.stop();
}

TEST(ServeConcurrency, TinyQueueExercisesBackpressure) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(build_fixture(fx));

  // queue_depth 1 + a long batching window: the worker parks in the window
  // holding the first request, one more request fits the queue, and any
  // burst beyond that must bounce with kBusyReply.
  serve::ServeConfig config;
  config.workers = 1;
  config.batch_max = 2;
  config.batch_window_us = 50'000;
  config.queue_depth = 1;
  serve::Server server(*fx.model, fx.scalers, config);
  server.start();

  const std::string& psample = fx.psample_bytes[0];
  const double expected = fx.expected_scaled[0];

  std::uint64_t busy_seen = 0;
  constexpr int kBursts = 50;
  for (int burst = 0; burst < kBursts && busy_seen == 0; ++burst) {
    // Pipeline 8 predict frames back-to-back on one connection, then read
    // 8 replies: predicts and busies in any order.
    serve::Socket socket = serve::connect_loopback(server.port());
    socket.set_recv_timeout_ms(20000);
    constexpr int kBurstSize = 8;
    for (int i = 0; i < kBurstSize; ++i) {
      const auto frame = serve::encode_frame(
          serve::FrameKind::kPredictRequest, static_cast<std::uint64_t>(i),
          psample.data(), psample.size());
      socket.write_all(frame.data(), frame.size());
    }
    for (int i = 0; i < kBurstSize; ++i) {
      std::uint8_t header_bytes[serve::kFrameHeaderBytes];
      ASSERT_TRUE(socket.read_exact(header_bytes, sizeof header_bytes))
          << "burst " << burst << " reply " << i;
      serve::FrameHeader header;
      ASSERT_EQ(serve::decode_header(header_bytes, header),
                serve::HeaderVerdict::kOk);
      if (header.kind == serve::FrameKind::kBusyReply) {
        ++busy_seen;
        socket.discard_exact(header.payload_bytes);
        continue;
      }
      ASSERT_EQ(header.kind, serve::FrameKind::kPredictReply)
          << "burst " << burst << " reply " << i;
      std::vector<std::uint8_t> payload(
          static_cast<std::size_t>(header.payload_bytes));
      ASSERT_TRUE(socket.read_exact(payload.data(), payload.size()));
      const auto reply =
          serve::decode_predict_reply_payload(payload.data(), payload.size());
      ASSERT_TRUE(reply.has_value());
      // Backpressure must never leak into values.
      EXPECT_EQ(std::memcmp(&reply->scaled, &expected, 8), 0);
    }
  }
  EXPECT_GT(busy_seen, 0u) << "no kBusyReply in " << kBursts
                           << " bursts against a depth-1 queue";
  EXPECT_GE(server.stats().busy_rejected, busy_seen);

  // A retrying client still lands the exact prediction afterwards.
  serve::Client client(server.port(), 20000);
  std::uint64_t retries = 0;
  const auto response = client.predict_until_served(psample, &retries);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->kind, serve::FrameKind::kPredictReply);
  EXPECT_EQ(std::memcmp(&response->prediction.scaled, &expected, 8), 0);
  server.stop();
}

/// Live thread count of this process (gtest + server + OpenMP pool).
std::size_t process_thread_count() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("Threads:", 0) == 0)
      return static_cast<std::size_t>(std::stoul(line.substr(8)));
  ADD_FAILURE() << "no Threads: line in /proc/self/status";
  return 0;
}

TEST(ServeConcurrency, FixedThreadPoolServesHundredsOfIdleConnections) {
  // The reactor's scaling contract: connection count and thread count are
  // decoupled. 512 held-open idle connections plus 32 active ones must be
  // served by exactly the fixed pool (io threads + workers) — no thread per
  // connection — and every active reply stays bitwise-exact.
  rlimit rl{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &rl), 0);
  const rlim_t want = std::min<rlim_t>(rl.rlim_max, 4096);
  if (rl.rlim_cur < want) {
    rlimit raised = rl;
    raised.rlim_cur = want;
    if (setrlimit(RLIMIT_NOFILE, &raised) == 0) {
      ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &rl), 0);
    }
  }
  // Leave ~256 fds of headroom for the server side of each connection plus
  // everything else the process holds open.
  std::size_t idle_count = 512;
  if (rl.rlim_cur < 2 * 512 + 256)
    idle_count = rl.rlim_cur > 512 ? (rl.rlim_cur - 256) / 2 : 64;

  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(build_fixture(fx));

  serve::ServeConfig config;
  config.workers = 2;
  config.io_threads = 2;
  config.batch_max = 8;
  config.batch_window_us = 200;
  config.queue_depth = 1024;  // admit the full idle-sweep burst, no busies
  serve::Server server(*fx.model, fx.scalers, config);

  const std::size_t threads_before_start = process_thread_count();
  server.start();
  ASSERT_EQ(server.io_thread_count(), 2u);
  const std::size_t threads_after_start = process_thread_count();
  EXPECT_LE(threads_after_start - threads_before_start,
            server.io_thread_count() + config.workers + 1)
      << "server spawned more than its fixed pool";

  // Hold open the idle herd. Thread count must not move by a single thread.
  std::vector<serve::Socket> idle;
  idle.reserve(idle_count);
  for (std::size_t i = 0; i < idle_count; ++i) {
    idle.push_back(serve::connect_loopback(server.port()));
    idle.back().set_recv_timeout_ms(30000);
  }
  // Give the reactor a beat to pull every pending accept off the listener.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(process_thread_count(), threads_after_start)
      << idle_count << " idle connections grew the thread count";

  // 32 active connections interleaving requests while the herd idles.
  std::vector<std::unique_ptr<serve::Client>> active;
  for (int c = 0; c < 32; ++c)
    active.push_back(std::make_unique<serve::Client>(server.port(), 30000));
  for (int round = 0; round < 4; ++round) {
    for (std::size_t c = 0; c < active.size(); ++c) {
      const std::size_t which = (round + c) % std::size(kGoldenNames);
      const auto response =
          active[c]->predict_until_served(fx.psample_bytes[which]);
      ASSERT_TRUE(response.has_value()) << "client " << c;
      ASSERT_EQ(response->kind, serve::FrameKind::kPredictReply);
      EXPECT_EQ(std::memcmp(&response->prediction.scaled,
                            &fx.expected_scaled[which], 8),
                0)
          << "client " << c << " round " << round;
    }
  }
  EXPECT_EQ(process_thread_count(), threads_after_start)
      << "active traffic grew the thread count";

  // The idle herd was never starved: every held connection can still run a
  // pipelined predict and gets the bitwise-exact answer.
  const std::string& psample = fx.psample_bytes[0];
  const double expected = fx.expected_scaled[0];
  for (std::size_t i = 0; i < idle.size(); ++i) {
    const auto frame = serve::encode_frame(serve::FrameKind::kPredictRequest,
                                           static_cast<std::uint64_t>(i),
                                           psample.data(), psample.size());
    idle[i].write_all(frame.data(), frame.size());
  }
  for (std::size_t i = 0; i < idle.size(); ++i) {
    std::uint8_t header_bytes[serve::kFrameHeaderBytes];
    ASSERT_TRUE(idle[i].read_exact(header_bytes, sizeof header_bytes))
        << "idle conn " << i;
    serve::FrameHeader header;
    ASSERT_EQ(serve::decode_header(header_bytes, header),
              serve::HeaderVerdict::kOk);
    ASSERT_EQ(header.kind, serve::FrameKind::kPredictReply)
        << "idle conn " << i;
    EXPECT_EQ(header.request_id, static_cast<std::uint64_t>(i));
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(header.payload_bytes));
    ASSERT_TRUE(idle[i].read_exact(payload.data(), payload.size()));
    const auto reply =
        serve::decode_predict_reply_payload(payload.data(), payload.size());
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(std::memcmp(&reply->scaled, &expected, 8), 0)
        << "idle conn " << i;
  }

  const serve::ServerStats stats = server.stats();
  EXPECT_GE(stats.connections, idle_count + active.size());
  server.stop();
}

TEST(ServeConcurrency, StopWhileClientsInFlightAnswersEveryRequest) {
  Fixture fx;
  ASSERT_NO_FATAL_FAILURE(build_fixture(fx));

  serve::ServeConfig config;
  config.workers = 2;
  config.batch_max = 4;
  config.batch_window_us = 1000;
  serve::Server server(*fx.model, fx.scalers, config);
  server.start();

  // Clients fire continuously while the main thread stops the server. The
  // drain contract: every request either gets a real reply (predict/busy/
  // shutting-down error) or a clean disconnect — never a hang, never an
  // unanswered frame on a live connection.
  std::atomic<bool> go{true};
  std::atomic<int> anomalies{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      try {
        serve::Client client(server.port(), 20000);
        while (go.load()) {
          const auto response = client.predict_bytes(
              fx.psample_bytes[static_cast<std::size_t>(t) %
                               std::size(kGoldenNames)]);
          if (!response.has_value()) return;  // clean disconnect
          switch (response->kind) {
            case serve::FrameKind::kPredictReply:
            case serve::FrameKind::kBusyReply:
              break;
            case serve::FrameKind::kErrorReply:
              if (response->error.code != serve::ErrorCode::kShuttingDown)
                anomalies.fetch_add(1);
              break;
            default:
              anomalies.fetch_add(1);
          }
        }
      } catch (const serve::SocketError&) {
        // connection refused/reset during shutdown: clean
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.stop();
  go.store(false);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(anomalies.load(), 0);
}

}  // namespace
}  // namespace pg
