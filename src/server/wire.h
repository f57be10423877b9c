#ifndef INCDB_SERVER_WIRE_H_
#define INCDB_SERVER_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query_api.h"

namespace incdb {
namespace server {
namespace wire {

/// The incdb serving protocol, revision 1 ("docs/SERVING.md" has the prose
/// spec). Everything here is a FROZEN CONTRACT shared by the daemon and
/// every client ever built:
///
///   frame   :=  u32 body_len (LE, excludes this 5-byte header)
///            |  u8  msg_type (MsgType below)
///            |  body (body_len bytes)
///
///   body    :=  sequence of fields, each
///                 u16 field_id (LE) | u32 byte_len (LE) | payload
///
/// Scalars are little-endian fixed-width; strings are raw bytes; repeated
/// fields repeat their field id; submessages nest the same field encoding
/// inside a field payload. Decoders MUST skip unknown field ids (forward
/// compatibility) and default absent fields (backward compatibility);
/// field numbers are never renumbered or reused (the rules are spelled out
/// on QueryRequest in core/query_api.h, whose field numbers this module
/// implements). Every decode is bounds-checked: truncated, oversized, or
/// garbage bytes produce a Status, never UB — the protocol robustness
/// suite drives exactly that under ASan.
///
/// A connection opens with Hello / HelloAck carrying magic + version;
/// afterwards the client sends one request frame at a time and reads one
/// response frame (kQueryResult / kServerStatsResult / kPong on success,
/// kError carrying a numeric StatusCode otherwise).

/// First bytes of every Hello: "IDBW" little-endian.
inline constexpr uint32_t kMagic = 0x57424449u;

/// Bumped only for semantic changes an old decoder would misread; adding
/// fields or message types does NOT bump it (unknown ids are skipped).
inline constexpr uint32_t kProtocolVersion = 1;

/// Frame type tags. Append-only, like field numbers.
enum class MsgType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kQuery = 3,
  kQueryResult = 4,
  kError = 5,
  kServerStats = 6,
  kServerStatsResult = 7,
  kPing = 8,
  kPong = 9,
};

/// Bytes of the fixed frame header: u32 body_len + u8 msg_type.
inline constexpr size_t kFrameHeaderBytes = 5;

/// Default cap a peer will accept for one frame body. Large enough for a
/// multi-million-row id list, small enough that a hostile length prefix
/// cannot make a peer allocate unbounded memory.
inline constexpr size_t kDefaultMaxFrameBytes = 64u << 20;

/// Hello payload (both directions; the ack echoes the server's view).
struct Hello {
  uint32_t magic = kMagic;
  uint32_t version = kProtocolVersion;
  /// Advisory display name ("incdb_serverd 1", "incdb_cli", ...).
  std::string peer_name;
};

/// Daemon-side observability counters, serializable on the stats endpoint.
/// Monotonic counters unless noted; gauges are point-in-time.
struct ServerStats {
  uint64_t accepted_connections = 0;
  uint64_t active_connections = 0;  // gauge
  uint64_t admitted = 0;
  uint64_t rejected_overloaded = 0;
  uint64_t rejected_invalid = 0;
  /// Queued requests shed unexecuted because their deadline had already
  /// expired by the time a worker picked them up.
  uint64_t shed_expired = 0;
  /// Requests that started executing but hit their deadline mid-plan.
  uint64_t deadline_exceeded = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t queue_depth = 0;     // gauge
  uint64_t queue_capacity = 0;  // config echo
  uint64_t workers = 0;         // config echo
  /// Latency quantiles over a ring of the most recent completed requests
  /// (admission to completion), microseconds. 0 until something completed.
  uint64_t p50_micros = 0;
  uint64_t p99_micros = 0;
  uint64_t uptime_millis = 0;
  bool draining = false;
  /// Segment-store accounting (docs/SEGMENTS.md); all zero when the served
  /// database is unsegmented.
  uint64_t segments = 0;  // gauge: sealed segments in the live snapshot
  uint64_t compactions = 0;
  uint64_t compaction_reclaimed_rows = 0;
  uint64_t compaction_reclaimed_bytes = 0;
};

// ---- frame header ---------------------------------------------------------

/// Renders the 5-byte frame header for a body of `body_len` bytes.
void PutFrameHeader(MsgType type, uint32_t body_len, uint8_t out[5]);

/// Parses a frame header. Rejects bodies above `max_body` with
/// kInvalidArgument (the caller should answer and close: the stream cannot
/// be resynchronized past a length it refuses to read).
Status ParseFrameHeader(const uint8_t header[5], size_t max_body,
                        MsgType* type, uint32_t* body_len);

// ---- message bodies -------------------------------------------------------

std::vector<uint8_t> EncodeHello(const Hello& hello);
Result<Hello> DecodeHello(const std::vector<uint8_t>& body);

std::vector<uint8_t> EncodeQueryRequest(const QueryRequest& request);
/// Decode runs QueryRequest::Validate() before returning, so a daemon
/// never plans a malformed request: structural garbage and contract
/// violations both surface here as kInvalidArgument.
Result<QueryRequest> DecodeQueryRequest(const std::vector<uint8_t>& body);

std::vector<uint8_t> EncodeQueryResult(const QueryResult& result);
Result<QueryResult> DecodeQueryResult(const std::vector<uint8_t>& body);

/// Error body: field 1 = numeric StatusCode (u32, stable — see
/// common/status.h), field 2 = message. Unknown future codes decode as
/// kInternal with the numeric value preserved in the message.
std::vector<uint8_t> EncodeStatus(const Status& status);
Status DecodeStatus(const std::vector<uint8_t>& body);

std::vector<uint8_t> EncodeServerStats(const ServerStats& stats);
Result<ServerStats> DecodeServerStats(const std::vector<uint8_t>& body);

}  // namespace wire
}  // namespace server
}  // namespace incdb

#endif  // INCDB_SERVER_WIRE_H_
