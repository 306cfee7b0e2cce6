// Blocking serve client implementation.
#include "serve/client.hpp"

#include <chrono>
#include <thread>
#include <vector>

#include "io/pgraph_io.hpp"

namespace pg::serve {

Client::Client(std::uint16_t port, int recv_timeout_ms)
    : socket_(connect_loopback(port)) {
  if (recv_timeout_ms > 0) socket_.set_recv_timeout_ms(recv_timeout_ms);
}

std::string Client::sample_bytes(const model::TrainingSample& sample) {
  return io::encode_sample(sample);
}

std::optional<Response> Client::read_response() {
  std::uint8_t header_bytes[kFrameHeaderBytes];
  if (!socket_.read_exact(header_bytes, sizeof header_bytes))
    return std::nullopt;  // server closed the connection

  FrameHeader header;
  if (decode_header(header_bytes, header) != HeaderVerdict::kOk)
    throw SocketError("malformed reply frame from server");
  std::vector<std::uint8_t> payload(
      static_cast<std::size_t>(header.payload_bytes));
  if (header.payload_bytes > 0 &&
      !socket_.read_exact(payload.data(), payload.size()))
    throw SocketError("connection closed mid-reply");

  Response response;
  response.kind = header.kind;
  response.request_id = header.request_id;
  switch (header.kind) {
    case FrameKind::kPredictReply: {
      const auto decoded =
          decode_predict_reply_payload(payload.data(), payload.size());
      if (!decoded) throw SocketError("malformed predict reply payload");
      response.prediction = *decoded;
      break;
    }
    case FrameKind::kErrorReply: {
      const auto decoded =
          decode_error_reply_payload(payload.data(), payload.size());
      if (!decoded) throw SocketError("malformed error reply payload");
      response.error = *decoded;
      break;
    }
    case FrameKind::kBusyReply:
    case FrameKind::kPongReply:
      break;
    default:
      throw SocketError("unexpected reply frame kind");
  }
  return response;
}

std::optional<Response> Client::roundtrip(FrameKind kind, const void* payload,
                                          std::size_t payload_bytes) {
  const auto frame =
      encode_frame(kind, next_request_id_++, payload, payload_bytes);
  socket_.write_all(frame.data(), frame.size());
  return read_response();
}

std::optional<Response> Client::predict_bytes(const std::string& psample) {
  return roundtrip(FrameKind::kPredictRequest, psample.data(), psample.size());
}

std::optional<Response> Client::predict(const model::TrainingSample& sample) {
  return predict_bytes(sample_bytes(sample));
}

std::optional<Response> Client::predict_until_served(
    const std::string& psample, std::uint64_t* busy_retries) {
  while (true) {
    auto response = predict_bytes(psample);
    if (!response || response->kind != FrameKind::kBusyReply) return response;
    if (busy_retries != nullptr) ++*busy_retries;
    // Brief pause: long enough for a batching window to drain, short enough
    // that retry storms in tests stay fast.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::optional<Response> Client::ping() {
  return roundtrip(FrameKind::kPing, nullptr, 0);
}

}  // namespace pg::serve
