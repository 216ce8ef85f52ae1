#pragma once

// Binary wire protocol for the TCP transport.
//
// Stream layout: a sequence of frames, each
//
//     u32  payload_len   (little-endian, <= kMaxFrame)
//     u32  crc32c        (CRC32C of the payload bytes)
//     u8[] payload
//
// A payload starts with a kind byte: kMessage (one message) or kBatch
// (`u32 count` then `count` length-prefixed messages).  Every message is
//
//     u64 id    request id, echoed verbatim in the response; responses may
//               arrive out of order, the id is the correlation key
//     u8  ver   protocol version (kProtoVersion)
//     u8  op    serve::Op as a byte, or kOpQuit / kOpShutdown
//     ...       fixed field layout (request or response direction)
//
// All integers are little-endian; strings and arrays are u32 length-prefixed
// (pprim/byte_codec.hpp writes and reads every field).
// Malformed input is a protocol error, never UB: a CRC mismatch or a parse
// failure inside a well-delimited frame is recoverable (the connection
// survives and an error response is sent); only an oversized length prefix —
// where resynchronisation is impossible — closes the connection, and even
// then after an error response.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/request.hpp"

namespace smp::net {

/// Hard cap on a frame payload.  Large enough for a 100k-row topk response,
/// small enough that a corrupt length prefix cannot balloon memory.
inline constexpr std::uint32_t kMaxFrame = 16u << 20;

inline constexpr std::uint8_t kProtoVersion = 1;

/// Payload kind byte.
inline constexpr std::uint8_t kKindMessage = 1;
inline constexpr std::uint8_t kKindBatch = 2;

/// Control op bytes (outside the serve::Op range).
inline constexpr std::uint8_t kOpQuit = 254;
inline constexpr std::uint8_t kOpShutdown = 255;

/// One decoded request-direction message.
struct BinRequest {
  std::uint64_t id = 0;
  serve::Request req;
  bool quit = false;
  bool shutdown = false;
};

/// One decoded response-direction message.
struct BinResponse {
  std::uint64_t id = 0;
  serve::Op op = serve::Op::kPing;
  serve::Response resp;
};

// -- Encoding ---------------------------------------------------------------

/// Serialize one request-direction message body (id/ver/op + fields).
void encode_request(std::string& out, const BinRequest& r);

/// Serialize one response-direction message body.
void encode_response(std::string& out, const BinResponse& r);

/// Wrap one already-encoded message body in a kMessage frame.
void frame_message(std::string& out, std::string_view msg);

/// Wrap several already-encoded message bodies in one kBatch frame.
void frame_batch(std::string& out, const std::vector<std::string>& msgs);

/// Convenience: encode + frame a single response.
void encode_response_frame(std::string& out, const BinResponse& r);

// -- Decoding ---------------------------------------------------------------

enum class DecodeStatus {
  kNeedMore,  ///< not enough buffered bytes for a whole frame
  kOk,        ///< one frame extracted
  kBadFrame,  ///< frame delimited but corrupt (CRC); consumed, recoverable
  kFatal,     ///< length prefix unusable; connection must close
};

/// Try to extract one frame payload from `buf` starting at `off`.  On kOk and
/// kBadFrame, `off` advances past the frame.  `payload` views into `buf` and
/// is only valid until the buffer mutates.
DecodeStatus try_read_frame(std::string_view buf, std::size_t& off,
                            std::string_view& payload, std::string& error);

/// Decode a frame payload (kMessage or kBatch) into request messages.
/// Returns false on a malformed payload; `out` holds any messages decoded
/// before the error and `error` says what went wrong.
bool decode_request_payload(std::string_view payload,
                            std::vector<BinRequest>& out, std::string& error);

/// Decode a frame payload into response messages.
bool decode_response_payload(std::string_view payload,
                             std::vector<BinResponse>& out, std::string& error);

}  // namespace smp::net
