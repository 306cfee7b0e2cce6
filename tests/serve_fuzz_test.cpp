// Randomized robustness test for the serve layer, the socket-facing sibling
// of robustness_test: ~1k seeded-random mutations (truncations, byte flips,
// splices, insertions, deletions) of valid request streams are thrown at a
// live server over loopback. The contract: every mutated stream ends in an
// error reply or a clean disconnect — never a crash, hang, or UB (the suite
// runs under the ASan+UBSan CI job) — and the server stays fully healthy
// for well-formed clients afterwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
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
#include "support/rng.hpp"

#ifndef PG_GOLDEN_DIR
#error "PG_GOLDEN_DIR must point at tests/golden"
#endif

namespace pg {
namespace {

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

void append_frame(std::string& stream, serve::FrameKind kind,
                  std::uint64_t request_id, const std::string& payload) {
  const auto frame =
      serve::encode_frame(kind, request_id, payload.data(), payload.size());
  stream.append(reinterpret_cast<const char*>(frame.data()), frame.size());
}

/// Valid request streams to mutate: pipelined mixes of pings and predict
/// requests over the golden samples.
std::vector<std::string> seed_streams() {
  const std::string matvec = slurp(golden_path("matvec_cpu.psample"));
  const std::string corr = slurp(golden_path("corr_gpu_mem.psample"));

  std::vector<std::string> streams;
  {
    std::string s;
    append_frame(s, serve::FrameKind::kPing, 1, "");
    streams.push_back(std::move(s));
  }
  {
    std::string s;
    append_frame(s, serve::FrameKind::kPredictRequest, 2, matvec);
    streams.push_back(std::move(s));
  }
  {
    std::string s;
    append_frame(s, serve::FrameKind::kPing, 3, "");
    append_frame(s, serve::FrameKind::kPredictRequest, 4, matvec);
    append_frame(s, serve::FrameKind::kPredictRequest, 5, corr);
    append_frame(s, serve::FrameKind::kPing, 6, "");
    streams.push_back(std::move(s));
  }
  return streams;
}

/// One seeded mutation, intentionally crude (mirrors robustness_test):
/// hostile bytes, not plausible bytes.
std::string mutate(const std::string& stream, Rng& rng) {
  std::string s = stream;
  switch (rng.index(5)) {
    case 0: {  // truncation (often mid-header or mid-payload)
      s.resize(rng.index(s.size() + 1));
      break;
    }
    case 1: {  // byte flip (magic, version, kind, length, payload — anything)
      if (s.empty()) break;
      s[rng.index(s.size())] =
          static_cast<char>(static_cast<unsigned char>(rng.index(256)));
      break;
    }
    case 2: {  // splice: copy a random slice over a random position
      if (s.size() < 4) break;
      const std::size_t from = rng.index(s.size());
      const std::size_t len =
          1 + rng.index(std::min<std::size_t>(48, s.size() - from));
      const std::size_t to = rng.index(s.size());
      s.insert(to, s.substr(from, len));
      break;
    }
    case 3: {  // random garbage insertion
      const std::size_t to = s.empty() ? 0 : rng.index(s.size());
      const std::size_t count = 1 + rng.index(16);
      std::string junk;
      for (std::size_t i = 0; i < count; ++i)
        junk += static_cast<char>(static_cast<unsigned char>(rng.index(256)));
      s.insert(to, junk);
      break;
    }
    default: {  // range deletion
      if (s.size() < 2) break;
      const std::size_t from = rng.index(s.size());
      s.erase(from, 1 + rng.index(std::min<std::size_t>(64, s.size() - from)));
      break;
    }
  }
  return s;
}

class ServeFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    stored_ =
        io::load_sample_set(io::DatasetView(golden_path("corpus.pgds")));
    scalers_ = model::CheckpointScalers::from_sample_set(stored_.set);
    model_ = std::make_unique<model::ParaGraphModel>(config_);

    serve::ServeConfig serve_config;
    serve_config.workers = 1;
    serve_config.batch_max = 8;
    serve_config.batch_window_us = 100;
    server_ = std::make_unique<serve::Server>(*model_, scalers_, serve_config);
    server_->start();
    ASSERT_NE(server_->port(), 0);

    // The bitwise reference a healthy server must keep reproducing.
    model::InferenceEngine engine(*model_);
    const model::TrainingSample sample =
        io::read_sample_file(golden_path("matvec_cpu.psample"));
    expected_ = engine.predict_one(sample.graph, sample.aux);
    matvec_bytes_ = slurp(golden_path("matvec_cpu.psample"));
  }

  void TearDown() override { server_->stop(); }

  /// A well-formed client still gets the bitwise-correct answer.
  void expect_healthy(int iteration) {
    serve::Client client(server_->port(), 10000);
    std::uint64_t busy = 0;
    const auto response = client.predict_until_served(matvec_bytes_, &busy);
    ASSERT_TRUE(response.has_value()) << "after iteration " << iteration;
    ASSERT_EQ(response->kind, serve::FrameKind::kPredictReply)
        << "after iteration " << iteration << ": "
        << response->error.message;
    EXPECT_EQ(std::memcmp(&response->prediction.scaled, &expected_, 8), 0)
        << "after iteration " << iteration;
  }

  model::ModelConfig config_;
  io::StoredSampleSet stored_;
  model::CheckpointScalers scalers_;
  std::unique_ptr<model::ParaGraphModel> model_;
  std::unique_ptr<serve::Server> server_;
  double expected_ = 0.0;
  std::string matvec_bytes_;
};

TEST_F(ServeFuzz, SeededMutationsNeverCrashOrHangTheServer) {
  const std::vector<std::string> streams = seed_streams();
  ASSERT_FALSE(streams.empty());

  Rng rng(0x5e7ef022aa55deadULL);
  constexpr int kIterations = 1000;
  int replies_seen = 0;
  int disconnects = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string mutated = streams[rng.index(streams.size())];
    // Stack 1-3 mutations so framing damage can compound.
    const std::size_t rounds = 1 + rng.index(3);
    for (std::size_t r = 0; r < rounds; ++r) mutated = mutate(mutated, rng);

    try {
      serve::Socket socket = serve::connect_loopback(server_->port());
      // Generous hang guard only — the server closes mutated streams
      // promptly, so the timeout should never actually be consumed.
      socket.set_recv_timeout_ms(10000);
      if (!mutated.empty()) socket.write_all(mutated.data(), mutated.size());
      socket.shutdown_write();  // end-of-requests: the reader always drains

      // Drain every reply until the server disconnects. Each one must be a
      // well-formed reply frame — mutated input never produces mutated
      // output.
      while (true) {
        std::uint8_t header_bytes[serve::kFrameHeaderBytes];
        if (!socket.read_exact(header_bytes, sizeof header_bytes)) break;
        serve::FrameHeader header;
        ASSERT_EQ(serve::decode_header(header_bytes, header),
                  serve::HeaderVerdict::kOk)
            << "iteration " << i << ": malformed reply header";
        ASSERT_TRUE(header.kind == serve::FrameKind::kPredictReply ||
                    header.kind == serve::FrameKind::kErrorReply ||
                    header.kind == serve::FrameKind::kBusyReply ||
                    header.kind == serve::FrameKind::kPongReply)
            << "iteration " << i << ": reply kind "
            << static_cast<unsigned>(header.kind);
        socket.discard_exact(header.payload_bytes);
        ++replies_seen;
      }
    } catch (const serve::SocketError&) {
      // Reset mid-write/read: the server tore the connection down — a clean
      // disconnect as far as the contract is concerned.
      ++disconnects;
    }

    // Periodic health probe: the daemon must shrug all of this off.
    if ((i + 1) % 250 == 0) {
      ASSERT_NO_FATAL_FAILURE(expect_healthy(i)) << "iteration " << i;
    }
  }

  // Sanity: this seed exercises both reply and disconnect outcomes, and the
  // server did reject plenty of frames.
  EXPECT_GT(replies_seen, 0);
  const serve::ServerStats stats = server_->stats();
  EXPECT_GT(stats.requests_error, 0u);
  EXPECT_GE(stats.connections, static_cast<std::uint64_t>(kIterations));

  ASSERT_NO_FATAL_FAILURE(expect_healthy(kIterations));
  (void)disconnects;
}

TEST_F(ServeFuzz, SlowLorisFramesStillGetExactReplies) {
  // The classic reactor adversary: many connections trickling valid frames
  // a few bytes at a time. A thread-per-connection server parks a thread on
  // each; the reactor must assemble all of them concurrently with its fixed
  // pool and answer every frame — predictions bitwise-exact.
  constexpr std::size_t kConns = 16;
  std::vector<serve::Socket> conns;
  std::vector<std::string> streams(kConns);
  for (std::size_t c = 0; c < kConns; ++c) {
    conns.push_back(serve::connect_loopback(server_->port()));
    conns.back().set_recv_timeout_ms(20000);
    // ping, predict, ping — the predict buried between partial-frame
    // neighbours.
    append_frame(streams[c], serve::FrameKind::kPing, 100 + c, "");
    append_frame(streams[c], serve::FrameKind::kPredictRequest, 200 + c,
                 matvec_bytes_);
    append_frame(streams[c], serve::FrameKind::kPing, 300 + c, "");
  }

  // Interleave across connections: byte-at-a-time through every header
  // boundary region, then small odd-sized chunks for the payload bulk, so
  // each connection's assembler sees dozens of partial spans while 15
  // others are mid-frame too.
  std::vector<std::size_t> offset(kConns, 0);
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t c = 0; c < kConns; ++c) {
      const std::string& s = streams[c];
      if (offset[c] >= s.size()) continue;
      const std::size_t chunk =
          std::min(offset[c] < 100 ? std::size_t{1} : std::size_t{509},
                   s.size() - offset[c]);
      conns[c].write_all(s.data() + offset[c], chunk);
      offset[c] += chunk;
      progress = true;
    }
  }

  // Every connection is owed exactly: two pongs and one bitwise-exact
  // predict reply (completion order between them is not pinned).
  for (std::size_t c = 0; c < kConns; ++c) {
    int pongs = 0;
    int predicts = 0;
    for (int r = 0; r < 3; ++r) {
      std::uint8_t header_bytes[serve::kFrameHeaderBytes];
      ASSERT_TRUE(conns[c].read_exact(header_bytes, sizeof header_bytes))
          << "conn " << c << " reply " << r;
      serve::FrameHeader header;
      ASSERT_EQ(serve::decode_header(header_bytes, header),
                serve::HeaderVerdict::kOk);
      if (header.kind == serve::FrameKind::kPongReply) {
        ++pongs;
        EXPECT_TRUE(header.request_id == 100 + c || header.request_id == 300 + c)
            << "conn " << c;
        conns[c].discard_exact(header.payload_bytes);
        continue;
      }
      ASSERT_EQ(header.kind, serve::FrameKind::kPredictReply)
          << "conn " << c << " reply " << r;
      EXPECT_EQ(header.request_id, 200 + c);
      std::vector<std::uint8_t> payload(
          static_cast<std::size_t>(header.payload_bytes));
      ASSERT_TRUE(conns[c].read_exact(payload.data(), payload.size()));
      const auto reply =
          serve::decode_predict_reply_payload(payload.data(), payload.size());
      ASSERT_TRUE(reply.has_value());
      EXPECT_EQ(std::memcmp(&reply->scaled, &expected_, 8), 0)
          << "slow-loris delivery changed prediction bits on conn " << c;
      ++predicts;
    }
    EXPECT_EQ(pongs, 2) << "conn " << c;
    EXPECT_EQ(predicts, 1) << "conn " << c;
  }
  ASSERT_NO_FATAL_FAILURE(expect_healthy(-2));
}

TEST_F(ServeFuzz, MidFrameDisconnectsNeverWedgeTheReactor) {
  // Connections that vanish partway through a frame: random prefixes of a
  // valid stream, then an abrupt close (no end-of-requests courtesy). The
  // assembler state must be reclaimed and the daemon unharmed.
  std::string stream;
  append_frame(stream, serve::FrameKind::kPing, 1, "");
  append_frame(stream, serve::FrameKind::kPredictRequest, 2, matvec_bytes_);

  Rng rng(0x10af5e7ed15c0ULL);
  constexpr int kConns = 50;
  for (int i = 0; i < kConns; ++i) {
    try {
      serve::Socket socket = serve::connect_loopback(server_->port());
      const std::size_t prefix = rng.index(stream.size());
      if (prefix > 0) socket.write_all(stream.data(), prefix);
      // Destructor closes with bytes possibly still owed both ways.
    } catch (const serve::SocketError&) {
      // reset while writing: also a disconnect
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_healthy(-3));
}

TEST(ServeReadGate, ConnectionThatNeverReadsIsGatedNotFatal) {
  // Write-queue backpressure: a client that pipelines requests but refuses
  // to read replies. The reactor must stop polling its reads once the
  // inflight cap is hit (read_gated counts the engagements), keep the rest
  // of the server healthy, and deliver every reply — bitwise exact — once
  // the client finally reads.
  const io::StoredSampleSet stored =
      io::load_sample_set(io::DatasetView(golden_path("corpus.pgds")));
  const model::CheckpointScalers scalers =
      model::CheckpointScalers::from_sample_set(stored.set);
  model::ModelConfig config;
  model::ParaGraphModel model(config);
  model::InferenceEngine engine(*&model);
  const model::TrainingSample sample =
      io::read_sample_file(golden_path("matvec_cpu.psample"));
  const double expected = engine.predict_one(sample.graph, sample.aux);
  const std::string psample = slurp(golden_path("matvec_cpu.psample"));

  serve::ServeConfig serve_config;
  serve_config.workers = 1;
  serve_config.batch_max = 4;
  serve_config.batch_window_us = 100;
  serve_config.queue_depth = 64;
  serve_config.conn_inflight_cap = 2;   // gate engages almost immediately
  serve_config.write_queue_cap = 4096;  // the floor
  serve::Server server(model, scalers, serve_config);
  server.start();

  serve::Socket socket = serve::connect_loopback(server.port());
  socket.set_recv_timeout_ms(30000);
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    const auto frame = serve::encode_frame(serve::FrameKind::kPredictRequest,
                                           static_cast<std::uint64_t>(i),
                                           psample.data(), psample.size());
    socket.write_all(frame.data(), frame.size());
  }

  // While this connection sulks, an ordinary client must sail through.
  serve::Client bystander(server.port(), 20000);
  const auto aside = bystander.predict_until_served(psample);
  ASSERT_TRUE(aside.has_value());
  ASSERT_EQ(aside->kind, serve::FrameKind::kPredictReply);

  // Now read everything: all 24 replies arrive, each bitwise exact.
  for (int i = 0; i < kRequests; ++i) {
    std::uint8_t header_bytes[serve::kFrameHeaderBytes];
    ASSERT_TRUE(socket.read_exact(header_bytes, sizeof header_bytes))
        << "reply " << i;
    serve::FrameHeader header;
    ASSERT_EQ(serve::decode_header(header_bytes, header),
              serve::HeaderVerdict::kOk);
    ASSERT_EQ(header.kind, serve::FrameKind::kPredictReply) << "reply " << i;
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(header.payload_bytes));
    ASSERT_TRUE(socket.read_exact(payload.data(), payload.size()));
    const auto reply =
        serve::decode_predict_reply_payload(payload.data(), payload.size());
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(std::memcmp(&reply->scaled, &expected, 8), 0) << "reply " << i;
  }

  EXPECT_GT(server.stats().read_gated, 0u)
      << "pipelining far past conn_inflight_cap never engaged the read gate";
  server.stop();
}

/// Floods one connection with pings, reading nothing, until queued pong
/// bytes past `write_queue_cap` engage the read gate; then reads to EOF and
/// checks that every pong arrived exactly once and in request order.
void flood_pings_until_gated(std::size_t write_queue_cap) {
  SCOPED_TRACE("write_queue_cap " + std::to_string(write_queue_cap));
  const io::StoredSampleSet stored =
      io::load_sample_set(io::DatasetView(golden_path("corpus.pgds")));
  const model::CheckpointScalers scalers =
      model::CheckpointScalers::from_sample_set(stored.set);
  model::ModelConfig config;
  model::ParaGraphModel model(config);

  serve::ServeConfig serve_config;
  serve_config.workers = 1;
  serve_config.io_threads = 1;
  serve_config.write_queue_cap = write_queue_cap;
  serve::Server server(model, scalers, serve_config);
  server.start();

  serve::Socket socket = serve::connect_loopback(server.port());
  socket.set_recv_timeout_ms(30000);

  // How many pings fill the loopback buffers depends on the host, so the
  // writer sends batches until the gate engages instead of a fixed count.
  constexpr std::uint64_t kBatch = 64 * 1024;
  constexpr std::uint64_t kMaxPings =
      (64u << 20) / serve::kFrameHeaderBytes;  // 64 MiB of requests
  std::atomic<std::uint64_t> sent{0};
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    std::vector<std::uint8_t> batch(kBatch * serve::kFrameHeaderBytes);
    try {
      while (server.stats().read_gated == 0 && sent.load() < kMaxPings) {
        for (std::uint64_t k = 0; k < kBatch; ++k) {
          serve::FrameHeader header;
          header.kind = serve::FrameKind::kPing;
          header.request_id = sent.load() + k;
          serve::encode_header(header,
                               batch.data() + k * serve::kFrameHeaderBytes);
        }
        socket.write_all(batch.data(), batch.size());
        sent.fetch_add(kBatch);
      }
      socket.shutdown_write();
    } catch (const serve::SocketError& e) {
      ADD_FAILURE() << "writer: " << e.what();
      socket.shutdown_read();  // unblock the reader below
    }
    writer_done.store(true);
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().read_gated == 0 && !writer_done.load() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GT(server.stats().read_gated, 0u)
      << "queued reply bytes past write_queue_cap never engaged the gate";

  // Read to EOF or to the first wrong frame; no assertion may return
  // before the writer is joined.
  std::uint64_t received = 0;
  try {
    std::uint8_t header_bytes[serve::kFrameHeaderBytes];
    while (socket.read_exact(header_bytes, sizeof header_bytes)) {
      serve::FrameHeader header;
      if (serve::decode_header(header_bytes, header) !=
              serve::HeaderVerdict::kOk ||
          header.kind != serve::FrameKind::kPongReply ||
          header.payload_bytes != 0 || header.request_id != received) {
        ADD_FAILURE() << "reply " << received
                      << " is not the next pong in request order";
        break;
      }
      ++received;
    }
  } catch (const serve::SocketError& e) {
    ADD_FAILURE() << "reader after " << received << " pongs: " << e.what();
  }
  socket.shutdown_write();  // a writer still blocked in send fails instead
  writer.join();

  EXPECT_EQ(received, sent.load());
  EXPECT_EQ(server.stats().pings, sent.load());
  server.stop();
}

TEST(ServeReadGate, QueuedReplyBytesGateReadsAndEveryPongArrives) {
  // Reply-byte backpressure: pings hold no inflight count, so only queued
  // reply bytes can engage the read gate. At the 4096-byte floor the queue
  // stays small enough that the kernel mostly takes it whole in one send.
  // At 16 MiB it outgrows the largest kernel send buffer of a default
  // Linux (tcp_wmem max 4 MiB), so sends go out partial and each must
  // resume at the right byte.
  flood_pings_until_gated(4096);
  flood_pings_until_gated(std::size_t{16} << 20);
}

TEST_F(ServeFuzz, DegenerateStreams) {
  // Hand-picked worst cases that random mutation might miss at one seed.
  const std::string psample = slurp(golden_path("matvec_cpu.psample"));
  std::vector<std::string> streams;
  streams.push_back("");                  // connect + immediate close
  streams.push_back("P");                 // 1 byte of magic
  streams.push_back("PGSV");              // magic only, no header tail
  streams.push_back(std::string(23, '\0'));  // one byte short of a header
  {
    // Header promising a payload that never arrives.
    const auto frame = serve::encode_frame(serve::FrameKind::kPredictRequest,
                                           9, nullptr, 0);
    std::string s(reinterpret_cast<const char*>(frame.data()), frame.size());
    s[16] = 0x40;  // declare a 64-byte payload, send none
    streams.push_back(std::move(s));
  }
  {
    // A predict payload truncated to half the .psample container.
    std::string s;
    append_frame(s, serve::FrameKind::kPredictRequest, 10,
                 psample.substr(0, psample.size() / 2));
    streams.push_back(std::move(s));
  }

  for (std::size_t i = 0; i < streams.size(); ++i) {
    try {
      serve::Socket socket = serve::connect_loopback(server_->port());
      socket.set_recv_timeout_ms(10000);
      if (!streams[i].empty())
        socket.write_all(streams[i].data(), streams[i].size());
      socket.shutdown_write();
      std::uint8_t header_bytes[serve::kFrameHeaderBytes];
      while (socket.read_exact(header_bytes, sizeof header_bytes)) {
        serve::FrameHeader header;
        ASSERT_EQ(serve::decode_header(header_bytes, header),
                  serve::HeaderVerdict::kOk)
            << "stream " << i;
        socket.discard_exact(header.payload_bytes);
      }
    } catch (const serve::SocketError&) {
      // clean disconnect
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_healthy(-1));
}

}  // namespace
}  // namespace pg
