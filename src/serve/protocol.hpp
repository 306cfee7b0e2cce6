// The paragraph-serve wire protocol: length-framed messages over a byte
// stream (loopback/TCP socket), built from the same explicit-little-endian
// pg::io primitives as the on-disk formats.
//
// Frame layout (both directions, all fields little-endian):
//
//   offset size field
//   0      4    magic "PGSV"
//   4      2    protocol version (kProtocolVersion)
//   6      2    frame kind (FrameKind)
//   8      8    request id — chosen by the client, echoed verbatim in every
//               reply so pipelined requests can be matched to their answers
//   16     8    payload length in bytes
//   24     ...  payload
//
// Request payloads:
//   kPredictRequest — one complete .psample container (the existing
//                     io::write_sample bytes; schema-hash checked on decode)
//   kPing           — empty
//
// Reply payloads:
//   kPredictReply   — f64 scaled prediction, f64 runtime in microseconds
//   kErrorReply     — u16 ErrorCode + u32-length-prefixed message string
//   kBusyReply      — empty (admission queue full; retry later)
//   kPongReply      — empty
//
// Error severity contract: a reply with code kMalformedFrame or kBadVersion
// means the server can no longer trust the stream's framing and closes the
// connection after sending it. kBadKind/kBadPayload/kShuttingDown/kInternal
// are per-request failures — the connection stays open and later requests
// are unaffected (per-request error isolation).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pg::serve {

inline constexpr std::uint8_t kFrameMagic[4] = {'P', 'G', 'S', 'V'};
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 24;

/// Upper bound on a frame payload. Far above any legitimate .psample in
/// this project, low enough that a corrupt/hostile length field fails
/// cleanly instead of driving a multi-gigabyte read or allocation.
inline constexpr std::uint64_t kMaxFramePayload = 64ull << 20;

enum class FrameKind : std::uint16_t {
  // Requests (client -> server).
  kPredictRequest = 0x0001,
  kPing = 0x0002,
  // Replies (server -> client); high bit set.
  kPredictReply = 0x0081,
  kErrorReply = 0x0082,
  kBusyReply = 0x0083,
  kPongReply = 0x0084,
};

enum class ErrorCode : std::uint16_t {
  kMalformedFrame = 1,  // bad magic or implausible length — fatal, disconnect
  kBadVersion = 2,      // protocol version mismatch — fatal, disconnect
  kBadKind = 3,         // unknown/unexpected frame kind — request-scoped
  kBadPayload = 4,      // payload failed to decode (io::FormatError text)
  kShuttingDown = 5,    // server is draining; no new work admitted
  kInternal = 6,        // prediction failed server-side
};

std::string_view frame_kind_name(FrameKind kind);
std::string_view error_code_name(ErrorCode code);

struct FrameHeader {
  std::uint16_t version = kProtocolVersion;
  FrameKind kind = FrameKind::kPing;
  std::uint64_t request_id = 0;
  std::uint64_t payload_bytes = 0;
};

/// Serialises a frame header into exactly kFrameHeaderBytes.
void encode_header(const FrameHeader& header, std::uint8_t out[kFrameHeaderBytes]);

/// Why a received header cannot be processed. kOk means fully valid;
/// kBadVersion/kOversized headers still carry trustworthy field values (the
/// caller may echo the request id in its error reply), kBadMagic ones do not.
enum class HeaderVerdict : std::uint8_t {
  kOk,
  kBadMagic,
  kBadVersion,
  kOversized,  // payload_bytes > kMaxFramePayload
};

/// Parses + validates a frame header from exactly kFrameHeaderBytes.
HeaderVerdict decode_header(const std::uint8_t bytes[kFrameHeaderBytes],
                            FrameHeader& out);

/// Appends header + payload to `out`, ready to write.
void append_frame(std::vector<std::uint8_t>& out, FrameKind kind,
                  std::uint64_t request_id, const void* payload,
                  std::size_t payload_bytes);

/// append_frame into a fresh buffer.
std::vector<std::uint8_t> encode_frame(FrameKind kind, std::uint64_t request_id,
                                       const void* payload,
                                       std::size_t payload_bytes);

// --- typed payloads -------------------------------------------------------

struct PredictReply {
  double scaled = 0.0;      // model-domain prediction (bitwise-comparable)
  double runtime_us = 0.0;  // scaled mapped back through the target scaler
};

struct ErrorReply {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

std::vector<std::uint8_t> encode_predict_reply_payload(const PredictReply& reply);
std::vector<std::uint8_t> encode_error_reply_payload(const ErrorReply& reply);

/// Decoders return nullopt on malformed payload bytes (wrong size,
/// truncated string, ...) — never throw, never crash.
std::optional<PredictReply> decode_predict_reply_payload(
    const std::uint8_t* payload, std::size_t payload_bytes);
std::optional<ErrorReply> decode_error_reply_payload(const std::uint8_t* payload,
                                                     std::size_t payload_bytes);

}  // namespace pg::serve
