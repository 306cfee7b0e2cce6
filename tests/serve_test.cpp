// Serve-layer regression suite (docs/SERVING.md): frame codec round trips,
// header rejection (bad magic / version / oversized), the error severity
// contract (request-scoped failures keep the connection, framing failures
// close it), and a loopback end-to-end pass over the golden corpus pinned
// bitwise against the in-process InferenceEngine — the daemon's dynamic
// batching must never change a single bit of any prediction.
#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
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
#include "serve/reply_cache.hpp"
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

// --- frame codec ----------------------------------------------------------

TEST(ServeProtocol, HeaderRoundTrip) {
  serve::FrameHeader header;
  header.kind = serve::FrameKind::kPredictRequest;
  header.request_id = 0x0123456789abcdefull;
  header.payload_bytes = 4096;

  std::uint8_t bytes[serve::kFrameHeaderBytes];
  serve::encode_header(header, bytes);
  EXPECT_EQ(std::memcmp(bytes, serve::kFrameMagic, 4), 0);

  serve::FrameHeader decoded;
  ASSERT_EQ(serve::decode_header(bytes, decoded), serve::HeaderVerdict::kOk);
  EXPECT_EQ(decoded.version, serve::kProtocolVersion);
  EXPECT_EQ(decoded.kind, header.kind);
  EXPECT_EQ(decoded.request_id, header.request_id);
  EXPECT_EQ(decoded.payload_bytes, header.payload_bytes);
}

TEST(ServeProtocol, HeaderRejectsBadMagicVersionAndOversize) {
  serve::FrameHeader header;
  header.kind = serve::FrameKind::kPing;
  std::uint8_t bytes[serve::kFrameHeaderBytes];
  serve::encode_header(header, bytes);

  std::uint8_t mangled[serve::kFrameHeaderBytes];
  serve::FrameHeader out;

  std::memcpy(mangled, bytes, sizeof bytes);
  mangled[0] = 'X';
  EXPECT_EQ(serve::decode_header(mangled, out),
            serve::HeaderVerdict::kBadMagic);

  std::memcpy(mangled, bytes, sizeof bytes);
  mangled[4] = 0x7f;  // version little-endian low byte
  EXPECT_EQ(serve::decode_header(mangled, out),
            serve::HeaderVerdict::kBadVersion);

  std::memcpy(mangled, bytes, sizeof bytes);
  mangled[23] = 0x7f;  // payload length's top byte: ~2^62 bytes
  EXPECT_EQ(serve::decode_header(mangled, out),
            serve::HeaderVerdict::kOversized);
  // The length field itself decodes before validation (the caller may echo
  // the request id from such a header).
  EXPECT_GT(out.payload_bytes, serve::kMaxFramePayload);
}

TEST(ServeProtocol, PredictReplyPayloadRoundTrip) {
  serve::PredictReply reply;
  reply.scaled = -0.123456789012345;
  reply.runtime_us = 1.5e6;
  const auto payload = serve::encode_predict_reply_payload(reply);
  ASSERT_EQ(payload.size(), 16u);
  const auto decoded =
      serve::decode_predict_reply_payload(payload.data(), payload.size());
  ASSERT_TRUE(decoded.has_value());
  // Bitwise, not approximate: the wire must not perturb a single ULP.
  EXPECT_EQ(std::memcmp(&decoded->scaled, &reply.scaled, 8), 0);
  EXPECT_EQ(std::memcmp(&decoded->runtime_us, &reply.runtime_us, 8), 0);

  EXPECT_FALSE(serve::decode_predict_reply_payload(payload.data(), 15));
  EXPECT_FALSE(serve::decode_predict_reply_payload(payload.data(), 0));
}

TEST(ServeProtocol, ErrorReplyPayloadRoundTrip) {
  serve::ErrorReply reply;
  reply.code = serve::ErrorCode::kBadPayload;
  reply.message = "sample decode failed: corrupt section table";
  const auto payload = serve::encode_error_reply_payload(reply);
  const auto decoded =
      serve::decode_error_reply_payload(payload.data(), payload.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->code, reply.code);
  EXPECT_EQ(decoded->message, reply.message);

  // Truncated string payloads must decode to nullopt, never throw.
  for (std::size_t n = 0; n < payload.size(); ++n)
    EXPECT_FALSE(serve::decode_error_reply_payload(payload.data(), n))
        << "truncated to " << n << " bytes";
}

// --- incremental frame assembly -------------------------------------------

std::vector<std::uint8_t> make_frame(serve::FrameKind kind, std::uint64_t id,
                                     const std::string& payload) {
  return serve::encode_frame(kind, id, payload.data(), payload.size());
}

TEST(FrameAssembler, PartialHeaderAccumulatesAcrossSpans) {
  // Byte-at-a-time delivery — the worst slow-loris case: no frame may
  // complete before the last byte, and exactly one after it.
  const auto frame =
      make_frame(serve::FrameKind::kPredictRequest, 42, "hello sample");
  serve::FrameAssembler assembler;
  std::vector<serve::FrameAssembler::Frame> out;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    ASSERT_TRUE(assembler.consume(&frame[i], 1, out)) << "byte " << i;
    ASSERT_TRUE(out.empty()) << "frame completed early at byte " << i;
    EXPECT_GT(assembler.pending_bytes(), 0u);
  }
  ASSERT_TRUE(assembler.consume(&frame[frame.size() - 1], 1, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].header.kind, serve::FrameKind::kPredictRequest);
  EXPECT_EQ(out[0].header.request_id, 42u);
  EXPECT_EQ(out[0].payload, "hello sample");
  EXPECT_EQ(assembler.pending_bytes(), 0u);  // back on a frame boundary
}

TEST(FrameAssembler, PartialPayloadSplitMidBody) {
  // Header + half the payload in one span, the rest in a second.
  const std::string payload(1000, 'x');
  const auto frame = make_frame(serve::FrameKind::kPredictRequest, 7, payload);
  serve::FrameAssembler assembler;
  std::vector<serve::FrameAssembler::Frame> out;
  const std::size_t cut = serve::kFrameHeaderBytes + 500;
  ASSERT_TRUE(assembler.consume(frame.data(), cut, out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(assembler.pending_bytes(), cut);
  ASSERT_TRUE(assembler.consume(frame.data() + cut, frame.size() - cut, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload, payload);
}

TEST(FrameAssembler, PipelinedFramesInOneSpanAllEmerge) {
  // Three frames (one empty-payload ping between two predicts) concatenated
  // into a single readiness event's bytes: all three come out, in order.
  std::vector<std::uint8_t> wire;
  for (const auto& frame :
       {make_frame(serve::FrameKind::kPredictRequest, 1, "first"),
        make_frame(serve::FrameKind::kPing, 2, ""),
        make_frame(serve::FrameKind::kPredictRequest, 3, "third")})
    wire.insert(wire.end(), frame.begin(), frame.end());

  serve::FrameAssembler assembler;
  std::vector<serve::FrameAssembler::Frame> out;
  ASSERT_TRUE(assembler.consume(wire.data(), wire.size(), out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].header.request_id, 1u);
  EXPECT_EQ(out[0].payload, "first");
  EXPECT_EQ(out[1].header.kind, serve::FrameKind::kPing);
  EXPECT_TRUE(out[1].payload.empty());
  EXPECT_EQ(out[2].header.request_id, 3u);
  EXPECT_EQ(out[2].payload, "third");
}

TEST(FrameAssembler, OversizedFrameIsFatalBeforeAllocation) {
  serve::FrameHeader header;
  header.kind = serve::FrameKind::kPredictRequest;
  header.request_id = 99;
  header.payload_bytes = std::uint64_t{1} << 62;  // a hostile length field
  std::uint8_t bytes[serve::kFrameHeaderBytes];
  serve::encode_header(header, bytes);

  serve::FrameAssembler assembler;
  std::vector<serve::FrameAssembler::Frame> out;
  // Must reject on the header alone — no 2^62-byte buffer is ever resized.
  EXPECT_FALSE(assembler.consume(bytes, sizeof bytes, out));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(assembler.fatal());
  EXPECT_EQ(assembler.fatal_verdict(), serve::HeaderVerdict::kOversized);
  EXPECT_EQ(assembler.fatal_header().request_id, 99u);  // echoable
}

TEST(FrameAssembler, BadMagicAndVersionAreFatalAndInputIsThenIgnored) {
  serve::FrameAssembler bad_magic;
  std::vector<serve::FrameAssembler::Frame> out;
  std::uint8_t junk[serve::kFrameHeaderBytes] = {'J', 'U', 'N', 'K'};
  EXPECT_FALSE(bad_magic.consume(junk, sizeof junk, out));
  EXPECT_EQ(bad_magic.fatal_verdict(), serve::HeaderVerdict::kBadMagic);

  serve::FrameHeader header;
  header.kind = serve::FrameKind::kPing;
  header.request_id = 77;
  std::uint8_t skewed[serve::kFrameHeaderBytes];
  serve::encode_header(header, skewed);
  skewed[4] = 0x63;  // version little-endian low byte
  serve::FrameAssembler bad_version;
  EXPECT_FALSE(bad_version.consume(skewed, sizeof skewed, out));
  EXPECT_EQ(bad_version.fatal_verdict(), serve::HeaderVerdict::kBadVersion);
  EXPECT_EQ(bad_version.fatal_header().request_id, 77u);

  // Once fatal, a later (perfectly valid) frame must NOT resynchronise the
  // stream — framing trust is gone for good.
  const auto valid = make_frame(serve::FrameKind::kPing, 5, "");
  EXPECT_FALSE(bad_version.consume(valid.data(), valid.size(), out));
  EXPECT_TRUE(out.empty());
}

TEST(FrameAssembler, FramesBeforeTheFatalHeaderStillEmerge) {
  // A valid predict followed by garbage in ONE span: the predict comes out
  // (it deserves its reply) even though consume() reports the fatal.
  std::vector<std::uint8_t> wire =
      make_frame(serve::FrameKind::kPredictRequest, 8, "payload");
  const std::uint8_t junk[serve::kFrameHeaderBytes] = {'J', 'U', 'N', 'K'};
  wire.insert(wire.end(), junk, junk + sizeof junk);

  serve::FrameAssembler assembler;
  std::vector<serve::FrameAssembler::Frame> out;
  EXPECT_FALSE(assembler.consume(wire.data(), wire.size(), out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].header.request_id, 8u);
}

// --- reactor primitives ---------------------------------------------------

TEST(Reactor, EpollSetReportsPipeReadinessWithTag) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  serve::EpollSet epoll;
  epoll.add(fds[0], EPOLLIN, /*tag=*/0xfeedu);

  epoll_event events[4];
  EXPECT_EQ(epoll.wait(events, 4, 0), 0);  // nothing buffered yet

  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  ASSERT_EQ(epoll.wait(events, 4, 1000), 1);
  EXPECT_EQ(events[0].data.u64, 0xfeedu);
  EXPECT_TRUE(events[0].events & EPOLLIN);

  char byte;
  ASSERT_EQ(::read(fds[0], &byte, 1), 1);
  EXPECT_EQ(epoll.wait(events, 4, 0), 0);  // level-triggered: drained = quiet

  epoll.del(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Reactor, WakeFdSignalsThroughEpollAndDrains) {
  serve::WakeFd wake;
  serve::EpollSet epoll;
  epoll.add(wake.fd(), EPOLLIN, /*tag=*/1);

  epoll_event events[1];
  EXPECT_EQ(epoll.wait(events, 1, 0), 0);
  wake.signal();
  wake.signal();  // coalesces: still one readiness, one drain
  ASSERT_EQ(epoll.wait(events, 1, 1000), 1);
  wake.drain();
  EXPECT_EQ(epoll.wait(events, 1, 0), 0);
}

// --- loopback end-to-end --------------------------------------------------

/// Shared server over a deterministic checkpoint: fresh model (fixed init
/// seed) + the golden corpus scalers — the same recipe cli_test uses.
class ServeLoopback : public ::testing::Test {
 protected:
  void SetUp() override {
    stored_ =
        io::load_sample_set(io::DatasetView(golden_path("corpus.pgds")));
    scalers_ = model::CheckpointScalers::from_sample_set(stored_.set);
    model_ = std::make_unique<model::ParaGraphModel>(config_);

    serve::ServeConfig serve_config;
    serve_config.workers = 2;
    serve_config.batch_max = 4;
    serve_config.batch_window_us = 200;
    server_ = std::make_unique<serve::Server>(*model_, scalers_, serve_config);
    server_->start();
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override { server_->stop(); }

  model::ModelConfig config_;
  io::StoredSampleSet stored_;
  model::CheckpointScalers scalers_;
  std::unique_ptr<model::ParaGraphModel> model_;
  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeLoopback, PingPong) {
  serve::Client client(server_->port(), 5000);
  const auto pong = client.ping();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->kind, serve::FrameKind::kPongReply);
}

TEST_F(ServeLoopback, PredictionsBitwiseEqualInProcessEngine) {
  // In-process reference: predict_one per golden sample, single-threaded.
  model::InferenceEngine engine(*model_);
  model::SampleSet scaler_set;
  scalers_.apply_to(scaler_set);

  serve::Client client(server_->port(), 5000);
  for (const char* name : kGoldenNames) {
    const model::TrainingSample sample =
        io::read_sample_file(golden_path(std::string(name) + ".psample"));
    const double expected = engine.predict_one(sample.graph, sample.aux);
    const double expected_us = scaler_set.from_target(expected);

    const auto response =
        client.predict_bytes(slurp(golden_path(std::string(name) + ".psample")));
    ASSERT_TRUE(response.has_value()) << name;
    ASSERT_EQ(response->kind, serve::FrameKind::kPredictReply)
        << name << ": " << response->error.message;
    EXPECT_EQ(std::memcmp(&response->prediction.scaled, &expected, 8), 0)
        << name << ": served " << response->prediction.scaled
        << " != in-process " << expected;
    EXPECT_EQ(std::memcmp(&response->prediction.runtime_us, &expected_us, 8), 0)
        << name;
  }
}

TEST_F(ServeLoopback, RequestIdsAreEchoedAcrossPipelinedRequests) {
  // Write three predict frames back-to-back, then collect three replies:
  // every reply's id must be one of the requests', each exactly once, so
  // coalesced/pipelined traffic can always be matched to its answers.
  const std::string psample = slurp(golden_path("matvec_cpu.psample"));
  serve::Socket socket = serve::connect_loopback(server_->port());
  socket.set_recv_timeout_ms(5000);

  const std::uint64_t ids[] = {11, 22, 33};
  for (const std::uint64_t id : ids) {
    const auto frame =
        serve::encode_frame(serve::FrameKind::kPredictRequest, id,
                            psample.data(), psample.size());
    socket.write_all(frame.data(), frame.size());
  }

  std::vector<std::uint64_t> seen;
  for (int i = 0; i < 3; ++i) {
    std::uint8_t header_bytes[serve::kFrameHeaderBytes];
    ASSERT_TRUE(socket.read_exact(header_bytes, sizeof header_bytes));
    serve::FrameHeader header;
    ASSERT_EQ(serve::decode_header(header_bytes, header),
              serve::HeaderVerdict::kOk);
    EXPECT_EQ(header.kind, serve::FrameKind::kPredictReply);
    socket.discard_exact(header.payload_bytes);
    seen.push_back(header.request_id);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{11, 22, 33}));
}

TEST_F(ServeLoopback, ZeroLengthPredictIsRequestScoped) {
  serve::Client client(server_->port(), 5000);
  const auto response = client.predict_bytes("");
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->kind, serve::FrameKind::kErrorReply);
  EXPECT_EQ(response->error.code, serve::ErrorCode::kBadPayload);

  // Per-request isolation: the same connection still answers pings.
  const auto pong = client.ping();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->kind, serve::FrameKind::kPongReply);
}

TEST_F(ServeLoopback, CorruptSamplePayloadIsRequestScoped) {
  std::string psample = slurp(golden_path("matvec_cpu.psample"));
  psample[0] = 'X';  // bad container magic -> io::FormatError on decode
  serve::Client client(server_->port(), 5000);
  const auto response = client.predict_bytes(psample);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->kind, serve::FrameKind::kErrorReply);
  EXPECT_EQ(response->error.code, serve::ErrorCode::kBadPayload);
  EXPECT_FALSE(response->error.message.empty());

  // ...and a well-formed request on the same connection still predicts.
  const auto good =
      client.predict_bytes(slurp(golden_path("matvec_cpu.psample")));
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->kind, serve::FrameKind::kPredictReply);
}

TEST_F(ServeLoopback, UnknownKindIsRequestScoped) {
  serve::Client client(server_->port(), 5000);
  const char junk[] = "whatever";
  const auto response =
      client.roundtrip(static_cast<serve::FrameKind>(0x7777), junk, sizeof junk);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->kind, serve::FrameKind::kErrorReply);
  EXPECT_EQ(response->error.code, serve::ErrorCode::kBadKind);

  const auto pong = client.ping();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->kind, serve::FrameKind::kPongReply);
}

/// Reads one raw reply frame; returns nullopt on end-of-stream.
std::optional<serve::ErrorReply> read_error_reply(serve::Socket& socket) {
  std::uint8_t header_bytes[serve::kFrameHeaderBytes];
  if (!socket.read_exact(header_bytes, sizeof header_bytes)) return std::nullopt;
  serve::FrameHeader header;
  EXPECT_EQ(serve::decode_header(header_bytes, header),
            serve::HeaderVerdict::kOk);
  EXPECT_EQ(header.kind, serve::FrameKind::kErrorReply);
  std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(header.payload_bytes));
  EXPECT_TRUE(socket.read_exact(payload.data(), payload.size()));
  auto reply = serve::decode_error_reply_payload(payload.data(), payload.size());
  EXPECT_TRUE(reply.has_value());
  return reply;
}

TEST_F(ServeLoopback, BadMagicIsFatal) {
  serve::Socket socket = serve::connect_loopback(server_->port());
  socket.set_recv_timeout_ms(5000);
  std::uint8_t garbage[serve::kFrameHeaderBytes] = {'J', 'U', 'N', 'K'};
  socket.write_all(garbage, sizeof garbage);

  const auto reply = read_error_reply(socket);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->code, serve::ErrorCode::kMalformedFrame);
  // Fatal: the server closes the stream after the reply — our next read
  // sees end-of-stream, not another answer.
  std::uint8_t byte = 0;
  EXPECT_FALSE(socket.read_exact(&byte, 1));
}

TEST_F(ServeLoopback, VersionMismatchIsFatalAndEchoesId) {
  serve::FrameHeader header;
  header.kind = serve::FrameKind::kPing;
  header.request_id = 77;
  std::uint8_t bytes[serve::kFrameHeaderBytes];
  serve::encode_header(header, bytes);
  bytes[4] = 0x63;  // version 0x63 != kProtocolVersion

  serve::Socket socket = serve::connect_loopback(server_->port());
  socket.set_recv_timeout_ms(5000);
  socket.write_all(bytes, sizeof bytes);

  std::uint8_t header_bytes[serve::kFrameHeaderBytes];
  ASSERT_TRUE(socket.read_exact(header_bytes, sizeof header_bytes));
  serve::FrameHeader reply_header;
  ASSERT_EQ(serve::decode_header(header_bytes, reply_header),
            serve::HeaderVerdict::kOk);
  EXPECT_EQ(reply_header.kind, serve::FrameKind::kErrorReply);
  EXPECT_EQ(reply_header.request_id, 77u);  // trusted even on version skew
  std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(reply_header.payload_bytes));
  ASSERT_TRUE(socket.read_exact(payload.data(), payload.size()));
  const auto reply =
      serve::decode_error_reply_payload(payload.data(), payload.size());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->code, serve::ErrorCode::kBadVersion);
}

TEST_F(ServeLoopback, OversizedFrameIsFatal) {
  serve::FrameHeader header;
  header.kind = serve::FrameKind::kPredictRequest;
  header.request_id = 5;
  header.payload_bytes = serve::kMaxFramePayload + 1;
  std::uint8_t bytes[serve::kFrameHeaderBytes];
  serve::encode_header(header, bytes);

  serve::Socket socket = serve::connect_loopback(server_->port());
  socket.set_recv_timeout_ms(5000);
  socket.write_all(bytes, sizeof bytes);

  const auto reply = read_error_reply(socket);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->code, serve::ErrorCode::kMalformedFrame);
  std::uint8_t byte = 0;
  EXPECT_FALSE(socket.read_exact(&byte, 1));
}

TEST_F(ServeLoopback, StatsCountTraffic) {
  serve::Client client(server_->port(), 5000);
  ASSERT_TRUE(client.ping().has_value());
  const auto response =
      client.predict_bytes(slurp(golden_path("matvec_cpu.psample")));
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->kind, serve::FrameKind::kPredictReply);

  const serve::ServerStats stats = server_->stats();
  EXPECT_GE(stats.connections, 1u);
  EXPECT_GE(stats.pings, 1u);
  EXPECT_GE(stats.requests_ok, 1u);
  EXPECT_GE(stats.batches, 1u);
}

TEST_F(ServeLoopback, ClientSampleBytesMatchWireFormat) {
  // The client's serialisation IS the on-disk .psample format — one format,
  // two transports.
  const model::TrainingSample sample =
      io::read_sample_file(golden_path("matvec_cpu.psample"));
  EXPECT_EQ(serve::Client::sample_bytes(sample),
            slurp(golden_path("matvec_cpu.psample")));
}

TEST(ServeIdleTimeout, ReactorTimerClosesIdleConnections) {
  // Dedicated server with a short idle timeout: a connection that sends
  // nothing gets reaped by the reactor's timer pass (no SO_RCVTIMEO — the
  // close costs no thread) and the client observes a clean end-of-stream.
  const io::StoredSampleSet stored =
      io::load_sample_set(io::DatasetView(golden_path("corpus.pgds")));
  const model::CheckpointScalers scalers =
      model::CheckpointScalers::from_sample_set(stored.set);
  model::ModelConfig config;
  model::ParaGraphModel model(config);

  serve::ServeConfig serve_config;
  serve_config.workers = 1;
  serve_config.idle_timeout_ms = 100;
  serve::Server server(model, scalers, serve_config);
  server.start();

  serve::Socket idle = serve::connect_loopback(server.port());
  idle.set_recv_timeout_ms(5000);
  std::uint8_t byte = 0;
  // Blocks until the reaper closes us; EOF well before the recv timeout.
  EXPECT_FALSE(idle.read_exact(&byte, 1));
  EXPECT_GE(server.stats().idle_closed, 1u);

  // An ACTIVE connection with in-flight traffic must never be reaped: ping
  // repeatedly past several timeout periods.
  serve::Client client(server.port(), 5000);
  for (int i = 0; i < 5; ++i) {
    const auto pong = client.ping();
    ASSERT_TRUE(pong.has_value()) << "active connection reaped at ping " << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  server.stop();
}

TEST(ServeShutdown, StopWhileClientsConnectClosesTheListener) {
  // stop() only raises the flag and wakes io thread 0; that thread, the
  // listener's one reader, closes it. Connects racing the stop are served,
  // refused or reset — never hung — and once stop() returns nothing new
  // gets in. Looped so a ThreadSanitizer build sees many interleavings of
  // handle_accept and the close.
  const io::StoredSampleSet stored =
      io::load_sample_set(io::DatasetView(golden_path("corpus.pgds")));
  const model::CheckpointScalers scalers =
      model::CheckpointScalers::from_sample_set(stored.set);
  model::ModelConfig config;
  model::ParaGraphModel model(config);

  serve::ServeConfig serve_config;
  serve_config.workers = 1;
  serve_config.io_threads = 2;
  std::uint16_t last_port = 0;
  for (int round = 0; round < 20; ++round) {
    serve::Server server(model, scalers, serve_config);
    server.start();
    const std::uint16_t port = server.port();
    std::atomic<bool> go{true};
    std::atomic<int> connected{0};
    std::thread connector([&] {
      while (go.load()) {
        try {
          serve::Socket socket = serve::connect_loopback(port);
          connected.fetch_add(1);
        } catch (const serve::SocketError&) {
          // refused or reset by the stopping server: expected
        }
      }
    });
    for (int wait = 0; wait < 50'000 && connected.load() < 3; ++wait)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    EXPECT_GE(connected.load(), 3) << "round " << round;
    server.stop();
    go.store(false);
    connector.join();
    last_port = port;
  }
  EXPECT_THROW((void)serve::connect_loopback(last_port), serve::SocketError);
}

TEST(ServeConfigEnv, KnobsAreReadAndClamped) {
  struct Restore {
    ~Restore() {
      unsetenv("PARAGRAPH_SERVE_WORKERS");
      unsetenv("PARAGRAPH_SERVE_IO_THREADS");
      unsetenv("PARAGRAPH_THREADS");
      unsetenv("PARAGRAPH_SERVE_QUEUE");
      unsetenv("PARAGRAPH_SERVE_WINDOW_US");
      unsetenv("PARAGRAPH_SERVE_CONN_INFLIGHT");
      unsetenv("PARAGRAPH_SERVE_WRITEQ_CAP");
      unsetenv("PARAGRAPH_SERVE_CACHE");
      unsetenv("PARAGRAPH_SERVE_CACHE_CAP");
    }
  } restore;
  setenv("PARAGRAPH_SERVE_WORKERS", "3", 1);
  setenv("PARAGRAPH_SERVE_IO_THREADS", "2", 1);
  setenv("PARAGRAPH_THREADS", "-3", 1);  // floor is 1 -> clamped
  setenv("PARAGRAPH_SERVE_QUEUE", "0", 1);  // below the floor of 1 -> clamped
  setenv("PARAGRAPH_SERVE_WINDOW_US", "500", 1);
  setenv("PARAGRAPH_SERVE_CONN_INFLIGHT", "0", 1);  // floor is 1 -> clamped
  setenv("PARAGRAPH_SERVE_WRITEQ_CAP", "1", 1);  // floor is 4096 -> clamped
  setenv("PARAGRAPH_SERVE_CACHE", "1", 1);
  setenv("PARAGRAPH_SERVE_CACHE_CAP", "64", 1);
  ::testing::internal::CaptureStderr();
  serve::ServeConfig config = serve::serve_config_from_env();
  // Each clamp says so once on stderr, in read order.
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "paragraph: PARAGRAPH_THREADS=-3 is out of range [1, 256]; "
            "using 1\n"
            "paragraph: PARAGRAPH_SERVE_QUEUE=0 is out of range [1, 1048576]; "
            "using 1\n"
            "paragraph: PARAGRAPH_SERVE_CONN_INFLIGHT=0 is out of range "
            "[1, 65536]; using 1\n"
            "paragraph: PARAGRAPH_SERVE_WRITEQ_CAP=1 is out of range "
            "[4096, 1073741824]; using 4096\n");
  EXPECT_EQ(config.workers, 3u);
  EXPECT_EQ(config.io_threads, 2u);
  EXPECT_EQ(config.engine_threads, 1u);
  EXPECT_EQ(config.queue_depth, 1u);
  EXPECT_EQ(config.batch_window_us, 500u);
  EXPECT_EQ(config.conn_inflight_cap, 1u);
  EXPECT_EQ(config.write_queue_cap, 4096u);
  EXPECT_TRUE(config.cache);
  EXPECT_EQ(config.cache_capacity, 64u);

  setenv("PARAGRAPH_SERVE_WORKERS", "0", 1);
  setenv("PARAGRAPH_SERVE_IO_THREADS", "999", 1);
  ::testing::internal::CaptureStderr();
  config = serve::serve_config_from_env();
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "paragraph: PARAGRAPH_SERVE_WORKERS=0 is out of range [1, 256]; "
            "using 1\n"
            "paragraph: PARAGRAPH_SERVE_IO_THREADS=999 is out of range "
            "[0, 64]; using 64\n");
  EXPECT_EQ(config.workers, 1u);
  EXPECT_EQ(config.io_threads, 64u);
}

// Flags and variables go through one reader: for every integer row that
// takes a value (all but the bare --cache), a value below lo, above hi,
// junk and an in-range value land in the field alike and print the same
// stderr line, apart from the name. lo - 2 and hi + 2 keep clear of the
// values KnobsAreReadAndClamped reported already (each (name, value) pair
// is reported once per process).
TEST(ServeConfigEnv, FlagAndVariableReadAlike) {
  const serve::ServeConfig defaults;
  for (const serve::ServeKnob& k : serve::serve_knobs()) {
    if (k.get == nullptr || (k.flag != nullptr && k.arg == nullptr)) continue;
    const std::string lo = std::to_string(k.lo);
    const std::string hi = std::to_string(k.hi);
    const std::string range = " is out of range [" + lo + ", " + hi + "]; ";
    const std::string fallback = std::to_string(k.get(defaults));
    const std::string mid = std::to_string(k.lo + (k.hi - k.lo) / 2);
    const struct {
      std::string value, problem, used;
    } cases[] = {{std::to_string(k.lo - 2), range, lo},
                 {std::to_string(k.hi + 2), range, hi},
                 {"8x", " is not an integer; ", fallback},
                 {"abc", " is not an integer; ", fallback},
                 {mid, "", mid}};
    for (const auto& c : cases) {
      for (const char* name : {k.flag, k.env}) {
        if (name == nullptr) continue;
        SCOPED_TRACE(std::string(name) + "=" + c.value);
        std::string text = name;
        std::string value = c.value;
        std::vector<char*> args;
        if (name == k.flag) args = {text.data(), value.data()};
        else setenv(name, value.c_str(), 1);
        ::testing::internal::CaptureStderr();
        const serve::ServeConfig config = serve::read_serve_config(args);
        const std::string err = ::testing::internal::GetCapturedStderr();
        if (k.env != nullptr) unsetenv(k.env);
        EXPECT_EQ(std::to_string(k.get(config)), c.used);
        EXPECT_EQ(err, c.problem.empty() ? ""
                                         : "paragraph: " + text + "=" + value +
                                               c.problem + "using " + c.used +
                                               "\n");
      }
    }
  }
}

TEST(ServeConfigEnv, FlagBeatsVariableAndUnknownOptionsThrow) {
  setenv("PARAGRAPH_SERVE_QUEUE", "7", 1);
  std::string args[] = {"--queue-depth", "9", "--cache", "--batch-max", "x"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  ::testing::internal::CaptureStderr();
  serve::ServeConfig config = serve::read_serve_config(argv);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "paragraph: --batch-max=x is not an integer; using 16\n");
  EXPECT_EQ(config.queue_depth, 9u);
  EXPECT_TRUE(config.cache);
  // A rejected flag keeps the variable's value.
  argv = {args[0].data(), args[4].data()};
  ::testing::internal::CaptureStderr();
  config = serve::read_serve_config(argv);
  (void)::testing::internal::GetCapturedStderr();
  EXPECT_EQ(config.queue_depth, 7u);
  unsetenv("PARAGRAPH_SERVE_QUEUE");

  std::string unknown = "--cache-eps";
  argv = {unknown.data(), args[1].data()};
  EXPECT_THROW((void)serve::read_serve_config(argv), std::invalid_argument);
  argv = {args[0].data()};  // a flag without its value
  EXPECT_THROW((void)serve::read_serve_config(argv), std::invalid_argument);
}

// --- reply cache ----------------------------------------------------------

TEST(ReplyCache, BytesHitReturnsStoredValue) {
  serve::ReplyCache cache(8);
  cache.insert("request-a", 42.0);
  const auto hit = cache.lookup("request-a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 42.0);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(ReplyCache, FailedLookupCountsOneMiss) {
  serve::ReplyCache cache(8);
  cache.insert("request-a", 1.0);
  EXPECT_FALSE(cache.lookup("request-b").has_value());
  EXPECT_FALSE(cache.lookup("request-a ").has_value());  // one byte longer
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ReplyCache, HitRefreshesRecencySoLeastRecentlyUsedIsEvicted) {
  serve::ReplyCache cache(2);
  cache.insert("request-a", 1.0);
  cache.insert("request-b", 2.0);
  // a is the older insert, but the hit makes b the least recently used.
  EXPECT_TRUE(cache.lookup("request-a").has_value());
  cache.insert("request-c", 3.0);

  EXPECT_TRUE(cache.lookup("request-a").has_value());
  EXPECT_FALSE(cache.lookup("request-b").has_value());
  EXPECT_TRUE(cache.lookup("request-c").has_value());
}

TEST(ReplyCache, DuplicateInsertKeepsOneEntryWithLatestValue) {
  // Two identical in-flight requests both miss and both insert.
  serve::ReplyCache cache(2);
  cache.insert("request-a", 1.0);
  cache.insert("request-a", 2.0);
  // One entry: a second key still fits without an eviction.
  cache.insert("request-b", 3.0);
  EXPECT_EQ(cache.stats().evictions, 0u);

  const auto hit = cache.lookup("request-a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 2.0);
  EXPECT_TRUE(cache.lookup("request-b").has_value());
}

TEST(ReplyCache, EvictionCounterCountsEveryDroppedEntry) {
  serve::ReplyCache cache(2);
  for (int i = 0; i < 5; ++i)
    cache.insert("request-" + std::to_string(i), static_cast<double>(i));
  EXPECT_EQ(cache.stats().evictions, 3u);
  // Only the two newest survive.
  EXPECT_FALSE(cache.lookup("request-2").has_value());
  EXPECT_TRUE(cache.lookup("request-3").has_value());
  EXPECT_TRUE(cache.lookup("request-4").has_value());
  EXPECT_EQ(cache.stats().evictions, 3u);
}

// --- reply cache end-to-end -------------------------------------------------

/// Loopback server with the reply cache on; everything else mirrors
/// ServeLoopback.
class ServeCacheLoopback : public ::testing::Test {
 protected:
  void SetUp() override {
    stored_ =
        io::load_sample_set(io::DatasetView(golden_path("corpus.pgds")));
    scalers_ = model::CheckpointScalers::from_sample_set(stored_.set);
    model_ = std::make_unique<model::ParaGraphModel>(config_);
    scalers_.apply_to(scaler_set_);

    serve::ServeConfig serve_config;
    serve_config.workers = 2;
    serve_config.batch_max = 4;
    serve_config.cache = true;
    server_ = std::make_unique<serve::Server>(*model_, scalers_, serve_config);
    server_->start();
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override { server_->stop(); }

  /// Asserts a reply is bit-for-bit what the uncached engine computes.
  void expect_bitwise_predict_one(const serve::Response& response,
                                  const model::TrainingSample& sample,
                                  const std::string& what) {
    model::InferenceEngine engine(*model_);
    const double expected = engine.predict_one(sample.graph, sample.aux);
    const double expected_us = scaler_set_.from_target(expected);
    ASSERT_EQ(response.kind, serve::FrameKind::kPredictReply)
        << what << ": " << response.error.message;
    EXPECT_EQ(std::memcmp(&response.prediction.scaled, &expected, 8), 0)
        << what;
    EXPECT_EQ(std::memcmp(&response.prediction.runtime_us, &expected_us, 8), 0)
        << what;
  }

  model::ModelConfig config_;
  io::StoredSampleSet stored_;
  model::CheckpointScalers scalers_;
  model::SampleSet scaler_set_;
  std::unique_ptr<model::ParaGraphModel> model_;
  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeCacheLoopback, ExactMatchHitsAreBitwiseIdentical) {
  // Every reply — miss or hit — must be bit-for-bit what the uncached
  // engine computes. Round one populates the cache, round two is served
  // from it, round three re-sends over a new connection; all three must
  // agree with predict_one exactly.
  for (int round = 0; round < 3; ++round) {
    serve::Client client(server_->port(), 5000);
    for (const char* name : kGoldenNames) {
      const std::string path = golden_path(std::string(name) + ".psample");
      const auto response = client.predict_bytes(slurp(path));
      ASSERT_TRUE(response.has_value()) << name << " round " << round;
      expect_bitwise_predict_one(*response, io::read_sample_file(path),
                                 std::string(name) + " round " +
                                     std::to_string(round));
    }
  }

  const serve::ServerStats stats = server_->stats();
  const std::size_t samples = std::size(kGoldenNames);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 3 * samples);
  EXPECT_GE(stats.cache_hits, 2 * samples);  // rounds two and three
  EXPECT_LE(stats.cache_misses, samples);
}

TEST_F(ServeCacheLoopback, SameGraphWithDifferentBytesIsAMiss) {
  // Same graph and aux, different wire bytes: the cache keys on bytes
  // only, so the second request runs the full forward pass.
  const model::TrainingSample original =
      io::read_sample_file(golden_path("matvec_cpu.psample"));
  model::TrainingSample changed = original;
  changed.runtime_us += 1.0;  // changes the wire bytes, not graph or aux
  const std::string first_bytes = serve::Client::sample_bytes(original);
  const std::string second_bytes = serve::Client::sample_bytes(changed);
  ASSERT_NE(first_bytes, second_bytes);

  serve::Client client(server_->port(), 5000);
  const auto first = client.predict_bytes(first_bytes);
  ASSERT_TRUE(first.has_value());
  expect_bitwise_predict_one(*first, original, "first");
  const auto second = client.predict_bytes(second_bytes);
  ASSERT_TRUE(second.has_value());
  expect_bitwise_predict_one(*second, changed, "second");

  const serve::ServerStats stats = server_->stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 2u);
}

TEST_F(ServeCacheLoopback, MalformedPayloadIsNeverCached) {
  std::string psample = slurp(golden_path("matvec_cpu.psample"));
  psample[0] = 'X';  // bad container magic -> io::FormatError on decode
  serve::Client client(server_->port(), 5000);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const auto response = client.predict_bytes(psample);
    ASSERT_TRUE(response.has_value()) << "attempt " << attempt;
    ASSERT_EQ(response->kind, serve::FrameKind::kErrorReply)
        << "attempt " << attempt;
    EXPECT_EQ(response->error.code, serve::ErrorCode::kBadPayload)
        << "attempt " << attempt;
  }

  const serve::ServerStats stats = server_->stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 2u);
}

}  // namespace
}  // namespace pg
