// Frame header/payload codecs for the serve protocol. Byte order is
// assembled with the pg::io little-endian primitives, written straight into
// the caller's bytes and read back through a memory io::Source, so the wire
// format shares one endianness implementation with the on-disk containers.
#include "serve/protocol.hpp"

#include <cstring>

#include "io/binary.hpp"

namespace pg::serve {

std::string_view frame_kind_name(FrameKind kind) {
  switch (kind) {
    case FrameKind::kPredictRequest: return "predict-request";
    case FrameKind::kPing: return "ping";
    case FrameKind::kPredictReply: return "predict-reply";
    case FrameKind::kErrorReply: return "error-reply";
    case FrameKind::kBusyReply: return "busy-reply";
    case FrameKind::kPongReply: return "pong-reply";
  }
  return "unknown";
}

std::string_view error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformedFrame: return "malformed-frame";
    case ErrorCode::kBadVersion: return "bad-version";
    case ErrorCode::kBadKind: return "bad-kind";
    case ErrorCode::kBadPayload: return "bad-payload";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

void encode_header(const FrameHeader& header,
                   std::uint8_t out[kFrameHeaderBytes]) {
  std::memcpy(out, kFrameMagic, sizeof kFrameMagic);
  io::store_le16(out + 4, header.version);
  io::store_le16(out + 6, static_cast<std::uint16_t>(header.kind));
  io::store_le64(out + 8, header.request_id);
  io::store_le64(out + 16, header.payload_bytes);
}

HeaderVerdict decode_header(const std::uint8_t bytes[kFrameHeaderBytes],
                            FrameHeader& out) {
  if (std::memcmp(bytes, kFrameMagic, sizeof kFrameMagic) != 0)
    return HeaderVerdict::kBadMagic;
  io::Source src(bytes + sizeof kFrameMagic,
                 kFrameHeaderBytes - sizeof kFrameMagic);
  out.version = io::get_u16(src);
  out.kind = static_cast<FrameKind>(io::get_u16(src));
  out.request_id = io::get_u64(src);
  out.payload_bytes = io::get_u64(src);
  if (out.version != kProtocolVersion) return HeaderVerdict::kBadVersion;
  if (out.payload_bytes > kMaxFramePayload) return HeaderVerdict::kOversized;
  return HeaderVerdict::kOk;
}

void append_frame(std::vector<std::uint8_t>& out, FrameKind kind,
                  std::uint64_t request_id, const void* payload,
                  std::size_t payload_bytes) {
  FrameHeader header;
  header.kind = kind;
  header.request_id = request_id;
  header.payload_bytes = payload_bytes;
  const std::size_t at = out.size();
  out.resize(at + kFrameHeaderBytes + payload_bytes);
  encode_header(header, out.data() + at);
  if (payload_bytes > 0)
    std::memcpy(out.data() + at + kFrameHeaderBytes, payload, payload_bytes);
}

std::vector<std::uint8_t> encode_frame(FrameKind kind, std::uint64_t request_id,
                                       const void* payload,
                                       std::size_t payload_bytes) {
  std::vector<std::uint8_t> frame;
  append_frame(frame, kind, request_id, payload, payload_bytes);
  return frame;
}

std::vector<std::uint8_t> encode_predict_reply_payload(
    const PredictReply& reply) {
  std::vector<std::uint8_t> out;
  out.reserve(16);
  io::AppendSink sink{out};
  io::put_f64(sink, reply.scaled);
  io::put_f64(sink, reply.runtime_us);
  return out;
}

std::vector<std::uint8_t> encode_error_reply_payload(const ErrorReply& reply) {
  std::vector<std::uint8_t> out;
  out.reserve(2 + 4 + reply.message.size());
  io::AppendSink sink{out};
  io::put_u16(sink, static_cast<std::uint16_t>(reply.code));
  io::put_string(sink, reply.message);
  return out;
}

std::optional<PredictReply> decode_predict_reply_payload(
    const std::uint8_t* payload, std::size_t payload_bytes) {
  if (payload_bytes != 16) return std::nullopt;
  io::Source src(payload, payload_bytes);
  PredictReply reply;
  reply.scaled = io::get_f64(src);
  reply.runtime_us = io::get_f64(src);
  return reply;
}

std::optional<ErrorReply> decode_error_reply_payload(
    const std::uint8_t* payload, std::size_t payload_bytes) {
  if (payload_bytes < 6 || payload_bytes > kMaxFramePayload)
    return std::nullopt;
  io::Source src(payload, payload_bytes);
  ErrorReply reply;
  try {
    src.push_budget(payload_bytes);
    reply.code = static_cast<ErrorCode>(io::get_u16(src));
    reply.message = io::get_string(src);
    src.pop_budget();
  } catch (const io::FormatError&) {
    return std::nullopt;
  }
  return reply;
}

}  // namespace pg::serve
