// Blocking reference client for the paragraph-serve protocol: one socket,
// synchronous request/reply. Used by the `paragraph-cli client` subcommand,
// the bench_serve_load generator, and the serve test suites.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "model/sample.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"

namespace pg::serve {

/// One server reply, discriminated by `kind`:
///   kPredictReply -> `prediction` is valid
///   kErrorReply   -> `error` is valid
///   kBusyReply    -> backpressure: retry after a pause
///   kPongReply    -> ping answer
struct Response {
  FrameKind kind = FrameKind::kErrorReply;
  std::uint64_t request_id = 0;
  PredictReply prediction;
  ErrorReply error;
};

class Client {
 public:
  /// Connects to 127.0.0.1:`port`. recv_timeout_ms > 0 bounds every reply
  /// wait (a timeout surfaces as SocketError / a nullopt close).
  explicit Client(std::uint16_t port, int recv_timeout_ms = 0);

  /// Serialises a sample to the .psample wire bytes a predict request
  /// carries (io::encode_sample — the on-disk format IS the wire format).
  [[nodiscard]] static std::string sample_bytes(
      const model::TrainingSample& sample);

  /// Sends one predict request over pre-serialised .psample bytes and waits
  /// for the reply. nullopt = the server closed the connection.
  std::optional<Response> predict_bytes(const std::string& psample);

  /// sample_bytes + predict_bytes.
  std::optional<Response> predict(const model::TrainingSample& sample);

  /// predict_bytes, retrying (with a short sleep) while the server answers
  /// kBusyReply. `busy_retries`, if given, counts the retries observed.
  std::optional<Response> predict_until_served(const std::string& psample,
                                               std::uint64_t* busy_retries =
                                                   nullptr);

  std::optional<Response> ping();

  /// Sends an arbitrary frame (tests craft hostile ones via raw sockets;
  /// this is for well-formed but unusual kinds) and waits for one reply.
  std::optional<Response> roundtrip(FrameKind kind, const void* payload,
                                    std::size_t payload_bytes);

  /// The underlying socket, for tests that need to mangle the stream.
  [[nodiscard]] Socket& socket() { return socket_; }

 private:
  std::optional<Response> read_response();

  Socket socket_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace pg::serve
