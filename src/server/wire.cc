#include "server/wire.h"

#include <cstring>
#include <limits>

namespace incdb {
namespace server {
namespace wire {

namespace {

// Per-field-header bytes: u16 field id + u32 byte length.
constexpr size_t kFieldHeaderBytes = 6;

// Hostile bytes can nest expression submessages arbitrarily deep; the
// decoder is recursive, so bound it well below any real stack limit.
constexpr int kMaxExprDepth = 64;

// ---- little-endian scalar primitives --------------------------------------

// Little-endian bytes go through a local array and one insert: a
// push_back per byte into a possibly empty vector trips gcc 12's
// -Wstringop-overflow false positive.
template <typename T>
void PutLittleEndian(T v, std::vector<uint8_t>* out) {
  uint8_t bytes[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  out->insert(out->end(), bytes, bytes + sizeof(T));
}

void PutU16(uint16_t v, std::vector<uint8_t>* out) { PutLittleEndian(v, out); }
void PutU32(uint32_t v, std::vector<uint8_t>* out) { PutLittleEndian(v, out); }
void PutU64(uint64_t v, std::vector<uint8_t>* out) { PutLittleEndian(v, out); }

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// ---- field writer ---------------------------------------------------------

/// Appends `field_id | byte_len | payload` records to a growing buffer.
class FieldWriter {
 public:
  void PutU8(uint16_t id, uint8_t v) {
    Header(id, 1);
    buf_.push_back(v);
  }

  void PutU32(uint16_t id, uint32_t v) {
    Header(id, 4);
    wire::PutU32(v, &buf_);
  }

  void PutU64(uint16_t id, uint64_t v) {
    Header(id, 8);
    wire::PutU64(v, &buf_);
  }

  void PutI64(uint16_t id, int64_t v) {
    PutU64(id, static_cast<uint64_t>(v));
  }

  void PutF64(uint16_t id, double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "IEEE754 double expected");
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(id, bits);
  }

  void PutString(uint16_t id, const std::string& s) {
    Header(id, static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void PutBytes(uint16_t id, const std::vector<uint8_t>& payload) {
    Header(id, static_cast<uint32_t>(payload.size()));
    buf_.insert(buf_.end(), payload.begin(), payload.end());
  }

  void PutPackedU32(uint16_t id, const std::vector<uint32_t>& values) {
    Header(id, static_cast<uint32_t>(values.size() * 4));
    buf_.reserve(buf_.size() + values.size() * 4);
    for (const uint32_t v : values) wire::PutU32(v, &buf_);
  }

  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  void Header(uint16_t id, uint32_t len) {
    PutU16(id, &buf_);
    wire::PutU32(len, &buf_);
  }

  std::vector<uint8_t> buf_;
};

// ---- field reader ---------------------------------------------------------

/// One decoded field: id + a view into the enclosing buffer.
struct Field {
  uint16_t id = 0;
  const uint8_t* payload = nullptr;
  size_t len = 0;
};

/// Cursor over a field sequence. Every advance is bounds-checked; a
/// truncated field header or a length running past the buffer is a decode
/// error, never a read past the end.
class FieldReader {
 public:
  FieldReader(const uint8_t* data, size_t len) : p_(data), len_(len) {}

  bool Done() const { return pos_ >= len_; }

  Result<Field> Next() {
    if (len_ - pos_ < kFieldHeaderBytes) {
      return Status::InvalidArgument(
          "truncated message: " + std::to_string(len_ - pos_) +
          " trailing bytes, a field header needs " +
          std::to_string(kFieldHeaderBytes));
    }
    Field field;
    field.id = GetU16(p_ + pos_);
    const uint32_t payload_len = GetU32(p_ + pos_ + 2);
    pos_ += kFieldHeaderBytes;
    if (len_ - pos_ < payload_len) {
      return Status::InvalidArgument(
          "truncated message: field " + std::to_string(field.id) +
          " declares " + std::to_string(payload_len) + " bytes, only " +
          std::to_string(len_ - pos_) + " remain");
    }
    field.payload = p_ + pos_;
    field.len = payload_len;
    pos_ += payload_len;
    return field;
  }

 private:
  const uint8_t* p_;
  size_t len_;
  size_t pos_ = 0;
};

// Scalar fields must carry exactly their width — a wrong-size scalar is
// garbage, not a compatibility case (new meanings get new field numbers).
Status ExpectLen(const Field& field, size_t want) {
  if (field.len != want) {
    return Status::InvalidArgument(
        "field " + std::to_string(field.id) + " carries " +
        std::to_string(field.len) + " bytes, expected " +
        std::to_string(want));
  }
  return Status::OK();
}

Result<uint8_t> FieldU8(const Field& field) {
  INCDB_RETURN_IF_ERROR(ExpectLen(field, 1));
  return field.payload[0];
}

Result<uint32_t> FieldU32(const Field& field) {
  INCDB_RETURN_IF_ERROR(ExpectLen(field, 4));
  return GetU32(field.payload);
}

Result<uint64_t> FieldU64(const Field& field) {
  INCDB_RETURN_IF_ERROR(ExpectLen(field, 8));
  return GetU64(field.payload);
}

Result<int64_t> FieldI64(const Field& field) {
  INCDB_ASSIGN_OR_RETURN(const uint64_t bits, FieldU64(field));
  return static_cast<int64_t>(bits);
}

Result<double> FieldF64(const Field& field) {
  INCDB_ASSIGN_OR_RETURN(const uint64_t bits, FieldU64(field));
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string FieldString(const Field& field) {
  return std::string(reinterpret_cast<const char*>(field.payload), field.len);
}

Result<Value> FieldValue(const Field& field) {
  INCDB_ASSIGN_OR_RETURN(const int64_t v, FieldI64(field));
  if (v < std::numeric_limits<Value>::min() ||
      v > std::numeric_limits<Value>::max()) {
    return Status::InvalidArgument("interval bound " + std::to_string(v) +
                                   " outside the value domain");
  }
  return static_cast<Value>(v);
}

// ---- QueryRequest ---------------------------------------------------------

std::vector<uint8_t> EncodeTerm(const NamedTerm& term) {
  FieldWriter w;
  w.PutString(1, term.attribute);
  w.PutI64(2, term.lo);
  w.PutI64(3, term.hi);
  return w.Take();
}

Result<NamedTerm> DecodeTerm(const uint8_t* data, size_t len) {
  NamedTerm term;
  FieldReader reader(data, len);
  while (!reader.Done()) {
    INCDB_ASSIGN_OR_RETURN(const Field field, reader.Next());
    switch (field.id) {
      case 1:
        term.attribute = FieldString(field);
        break;
      case 2: {
        INCDB_ASSIGN_OR_RETURN(term.lo, FieldValue(field));
        break;
      }
      case 3: {
        INCDB_ASSIGN_OR_RETURN(term.hi, FieldValue(field));
        break;
      }
      default:
        break;  // forward compatibility: skip unknown fields
    }
  }
  return term;
}

std::vector<uint8_t> EncodeExpr(const QueryExpr& expr) {
  FieldWriter w;
  w.PutU8(1, static_cast<uint8_t>(expr.kind()));
  if (expr.kind() == QueryExpr::Kind::kTerm) {
    w.PutU64(2, expr.attribute());
    w.PutI64(3, expr.interval().lo);
    w.PutI64(4, expr.interval().hi);
  } else {
    for (const QueryExpr& child : expr.children()) {
      w.PutBytes(5, EncodeExpr(child));
    }
  }
  return w.Take();
}

Result<QueryExpr> DecodeExpr(const uint8_t* data, size_t len, int depth) {
  if (depth > kMaxExprDepth) {
    return Status::InvalidArgument(
        "expression nests deeper than " + std::to_string(kMaxExprDepth) +
        " levels");
  }
  uint8_t kind_raw = 0;
  bool have_kind = false;
  uint64_t attribute = 0;
  Value lo = 1;
  Value hi = 1;
  std::vector<QueryExpr> children;
  FieldReader reader(data, len);
  while (!reader.Done()) {
    INCDB_ASSIGN_OR_RETURN(const Field field, reader.Next());
    switch (field.id) {
      case 1: {
        INCDB_ASSIGN_OR_RETURN(kind_raw, FieldU8(field));
        have_kind = true;
        break;
      }
      case 2: {
        INCDB_ASSIGN_OR_RETURN(attribute, FieldU64(field));
        break;
      }
      case 3: {
        INCDB_ASSIGN_OR_RETURN(lo, FieldValue(field));
        break;
      }
      case 4: {
        INCDB_ASSIGN_OR_RETURN(hi, FieldValue(field));
        break;
      }
      case 5: {
        INCDB_ASSIGN_OR_RETURN(
            QueryExpr child, DecodeExpr(field.payload, field.len, depth + 1));
        children.push_back(std::move(child));
        break;
      }
      default:
        break;
    }
  }
  if (!have_kind) {
    return Status::InvalidArgument("expression node without a kind");
  }
  switch (static_cast<QueryExpr::Kind>(kind_raw)) {
    case QueryExpr::Kind::kTerm:
      return QueryExpr::MakeTerm(static_cast<size_t>(attribute), {lo, hi});
    case QueryExpr::Kind::kAnd:
      if (children.empty()) {
        return Status::InvalidArgument("AND expression without children");
      }
      return QueryExpr::MakeAnd(std::move(children));
    case QueryExpr::Kind::kOr:
      if (children.empty()) {
        return Status::InvalidArgument("OR expression without children");
      }
      return QueryExpr::MakeOr(std::move(children));
    case QueryExpr::Kind::kNot:
      if (children.size() != 1) {
        return Status::InvalidArgument(
            "NOT expression needs exactly one child, got " +
            std::to_string(children.size()));
      }
      return QueryExpr::MakeNot(std::move(children[0]));
  }
  return Status::InvalidArgument("unknown expression kind " +
                                 std::to_string(kind_raw));
}

// ---- QueryStats / RoutingDecision submessages -----------------------------

std::vector<uint8_t> EncodeStats(const QueryStats& stats) {
  FieldWriter w;
  w.PutU64(1, stats.bitvectors_accessed);
  w.PutU64(2, stats.bitvector_ops);
  w.PutU64(3, stats.words_touched);
  w.PutU64(4, stats.candidates);
  w.PutU64(5, stats.false_positives);
  w.PutU64(6, stats.nodes_accessed);
  w.PutU64(7, stats.subqueries);
  w.PutU64(8, stats.rows_scanned);
  w.PutU64(9, stats.simd_path);
  w.PutU64(10, stats.words_decoded);
  w.PutU64(11, stats.segments_scanned);
  w.PutU64(12, stats.segments_pruned);
  return w.Take();
}

Result<QueryStats> DecodeStats(const uint8_t* data, size_t len) {
  QueryStats stats;
  FieldReader reader(data, len);
  while (!reader.Done()) {
    INCDB_ASSIGN_OR_RETURN(const Field field, reader.Next());
    uint64_t* slot = nullptr;
    switch (field.id) {
      case 1: slot = &stats.bitvectors_accessed; break;
      case 2: slot = &stats.bitvector_ops; break;
      case 3: slot = &stats.words_touched; break;
      case 4: slot = &stats.candidates; break;
      case 5: slot = &stats.false_positives; break;
      case 6: slot = &stats.nodes_accessed; break;
      case 7: slot = &stats.subqueries; break;
      case 8: slot = &stats.rows_scanned; break;
      case 9: slot = &stats.simd_path; break;
      case 10: slot = &stats.words_decoded; break;
      case 11: slot = &stats.segments_scanned; break;
      case 12: slot = &stats.segments_pruned; break;
      default: break;
    }
    if (slot != nullptr) {
      INCDB_ASSIGN_OR_RETURN(*slot, FieldU64(field));
    }
  }
  return stats;
}

std::vector<uint8_t> EncodeRouting(const RoutingDecision& routing) {
  FieldWriter w;
  w.PutString(1, routing.index_name);
  w.PutU8(2, routing.is_point_query ? 1 : 0);
  w.PutF64(3, routing.estimated_selectivity);
  w.PutF64(4, routing.estimated_cost);
  return w.Take();
}

Result<RoutingDecision> DecodeRouting(const uint8_t* data, size_t len) {
  RoutingDecision routing;
  FieldReader reader(data, len);
  while (!reader.Done()) {
    INCDB_ASSIGN_OR_RETURN(const Field field, reader.Next());
    switch (field.id) {
      case 1:
        routing.index_name = FieldString(field);
        break;
      case 2: {
        INCDB_ASSIGN_OR_RETURN(const uint8_t v, FieldU8(field));
        routing.is_point_query = v != 0;
        break;
      }
      case 3: {
        INCDB_ASSIGN_OR_RETURN(routing.estimated_selectivity, FieldF64(field));
        break;
      }
      case 4: {
        INCDB_ASSIGN_OR_RETURN(routing.estimated_cost, FieldF64(field));
        break;
      }
      default:
        break;
    }
  }
  return routing;
}

}  // namespace

// ---- frame header ---------------------------------------------------------

void PutFrameHeader(MsgType type, uint32_t body_len, uint8_t out[5]) {
  out[0] = static_cast<uint8_t>(body_len);
  out[1] = static_cast<uint8_t>(body_len >> 8);
  out[2] = static_cast<uint8_t>(body_len >> 16);
  out[3] = static_cast<uint8_t>(body_len >> 24);
  out[4] = static_cast<uint8_t>(type);
}

Status ParseFrameHeader(const uint8_t header[5], size_t max_body,
                        MsgType* type, uint32_t* body_len) {
  *body_len = GetU32(header);
  *type = static_cast<MsgType>(header[4]);
  if (*body_len > max_body) {
    return Status::InvalidArgument(
        "frame body of " + std::to_string(*body_len) +
        " bytes exceeds the " + std::to_string(max_body) + "-byte limit");
  }
  return Status::OK();
}

// ---- Hello ----------------------------------------------------------------

std::vector<uint8_t> EncodeHello(const Hello& hello) {
  FieldWriter w;
  w.PutU32(1, hello.magic);
  w.PutU32(2, hello.version);
  w.PutString(3, hello.peer_name);
  return w.Take();
}

Result<Hello> DecodeHello(const std::vector<uint8_t>& body) {
  Hello hello;
  hello.magic = 0;
  hello.version = 0;
  FieldReader reader(body.data(), body.size());
  while (!reader.Done()) {
    INCDB_ASSIGN_OR_RETURN(const Field field, reader.Next());
    switch (field.id) {
      case 1: {
        INCDB_ASSIGN_OR_RETURN(hello.magic, FieldU32(field));
        break;
      }
      case 2: {
        INCDB_ASSIGN_OR_RETURN(hello.version, FieldU32(field));
        break;
      }
      case 3:
        hello.peer_name = FieldString(field);
        break;
      default:
        break;
    }
  }
  return hello;
}

// ---- QueryRequest ---------------------------------------------------------

std::vector<uint8_t> EncodeQueryRequest(const QueryRequest& request) {
  FieldWriter w;
  w.PutU8(1, static_cast<uint8_t>(request.shape));
  w.PutU8(2, static_cast<uint8_t>(request.semantics));
  w.PutU8(3, request.count_only ? 1 : 0);
  w.PutU64(4, static_cast<uint64_t>(request.parallelism));
  w.PutU8(5, request.explain ? 1 : 0);
  for (const NamedTerm& term : request.terms) {
    w.PutBytes(6, EncodeTerm(term));
  }
  if (!request.text.empty()) w.PutString(7, request.text);
  if (request.expression.has_value()) {
    w.PutBytes(8, EncodeExpr(*request.expression));
  }
  if (request.deadline_millis != 0) w.PutU64(9, request.deadline_millis);
  if (request.limit != 0) w.PutU64(10, request.limit);
  return w.Take();
}

Result<QueryRequest> DecodeQueryRequest(const std::vector<uint8_t>& body) {
  QueryRequest request;
  FieldReader reader(body.data(), body.size());
  while (!reader.Done()) {
    INCDB_ASSIGN_OR_RETURN(const Field field, reader.Next());
    switch (field.id) {
      case 1: {
        INCDB_ASSIGN_OR_RETURN(const uint8_t shape, FieldU8(field));
        if (shape > static_cast<uint8_t>(QueryRequest::Shape::kText)) {
          return Status::InvalidArgument("unknown query shape " +
                                         std::to_string(shape));
        }
        request.shape = static_cast<QueryRequest::Shape>(shape);
        break;
      }
      case 2: {
        INCDB_ASSIGN_OR_RETURN(const uint8_t semantics, FieldU8(field));
        if (semantics > static_cast<uint8_t>(MissingSemantics::kNoMatch)) {
          return Status::InvalidArgument("unknown missing semantics " +
                                         std::to_string(semantics));
        }
        request.semantics = static_cast<MissingSemantics>(semantics);
        break;
      }
      case 3: {
        INCDB_ASSIGN_OR_RETURN(const uint8_t v, FieldU8(field));
        request.count_only = v != 0;
        break;
      }
      case 4: {
        INCDB_ASSIGN_OR_RETURN(const uint64_t v, FieldU64(field));
        request.parallelism = static_cast<size_t>(v);
        break;
      }
      case 5: {
        INCDB_ASSIGN_OR_RETURN(const uint8_t v, FieldU8(field));
        request.explain = v != 0;
        break;
      }
      case 6: {
        INCDB_ASSIGN_OR_RETURN(NamedTerm term,
                               DecodeTerm(field.payload, field.len));
        request.terms.push_back(std::move(term));
        break;
      }
      case 7:
        request.text = FieldString(field);
        break;
      case 8: {
        INCDB_ASSIGN_OR_RETURN(QueryExpr expr,
                               DecodeExpr(field.payload, field.len, 0));
        request.expression = std::move(expr);
        break;
      }
      case 9: {
        INCDB_ASSIGN_OR_RETURN(request.deadline_millis, FieldU64(field));
        break;
      }
      case 10: {
        INCDB_ASSIGN_OR_RETURN(request.limit, FieldU64(field));
        break;
      }
      default:
        break;
    }
  }
  INCDB_RETURN_IF_ERROR(request.Validate());
  return request;
}

// ---- QueryResult ----------------------------------------------------------

std::vector<uint8_t> EncodeQueryResult(const QueryResult& result) {
  FieldWriter w;
  w.PutU64(1, result.count);
  if (!result.row_ids.empty()) w.PutPackedU32(2, result.row_ids);
  w.PutString(3, result.chosen_index);
  w.PutU64(4, result.epoch);
  w.PutU64(5, result.visible_rows);
  if (!result.explain.empty()) w.PutString(6, result.explain);
  w.PutBytes(7, EncodeStats(result.stats));
  w.PutBytes(8, EncodeRouting(result.routing));
  return w.Take();
}

Result<QueryResult> DecodeQueryResult(const std::vector<uint8_t>& body) {
  QueryResult result;
  FieldReader reader(body.data(), body.size());
  while (!reader.Done()) {
    INCDB_ASSIGN_OR_RETURN(const Field field, reader.Next());
    switch (field.id) {
      case 1: {
        INCDB_ASSIGN_OR_RETURN(result.count, FieldU64(field));
        break;
      }
      case 2: {
        if (field.len % 4 != 0) {
          return Status::InvalidArgument(
              "packed row-id field of " + std::to_string(field.len) +
              " bytes is not a whole number of u32s");
        }
        result.row_ids.resize(field.len / 4);
        for (size_t i = 0; i < result.row_ids.size(); ++i) {
          result.row_ids[i] = GetU32(field.payload + i * 4);
        }
        break;
      }
      case 3:
        result.chosen_index = FieldString(field);
        break;
      case 4: {
        INCDB_ASSIGN_OR_RETURN(result.epoch, FieldU64(field));
        break;
      }
      case 5: {
        INCDB_ASSIGN_OR_RETURN(result.visible_rows, FieldU64(field));
        break;
      }
      case 6:
        result.explain = FieldString(field);
        break;
      case 7: {
        INCDB_ASSIGN_OR_RETURN(result.stats,
                               DecodeStats(field.payload, field.len));
        break;
      }
      case 8: {
        INCDB_ASSIGN_OR_RETURN(result.routing,
                               DecodeRouting(field.payload, field.len));
        break;
      }
      default:
        break;
    }
  }
  return result;
}

// ---- Status ---------------------------------------------------------------

std::vector<uint8_t> EncodeStatus(const Status& status) {
  FieldWriter w;
  w.PutU32(1, static_cast<uint32_t>(status.code()));
  w.PutString(2, status.message());
  return w.Take();
}

Status DecodeStatus(const std::vector<uint8_t>& body) {
  uint32_t code = static_cast<uint32_t>(StatusCode::kInternal);
  std::string message;
  FieldReader reader(body.data(), body.size());
  while (!reader.Done()) {
    const auto field = reader.Next();
    if (!field.ok()) return field.status();
    switch (field->id) {
      case 1: {
        const auto v = FieldU32(*field);
        if (!v.ok()) return v.status();
        code = *v;
        break;
      }
      case 2:
        message = FieldString(*field);
        break;
      default:
        break;
    }
  }
  if (code == static_cast<uint32_t>(StatusCode::kOk)) {
    // An error frame claiming OK is a protocol violation by the peer.
    return Status::Internal("error frame carried StatusCode::kOk: " + message);
  }
  if (code > kMaxStatusCode) {
    // A future server may know codes this client does not; keep the number.
    return Status::Internal("remote error with unknown status code " +
                            std::to_string(code) + ": " + message);
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

// ---- ServerStats ----------------------------------------------------------

std::vector<uint8_t> EncodeServerStats(const ServerStats& stats) {
  FieldWriter w;
  w.PutU64(1, stats.accepted_connections);
  w.PutU64(2, stats.active_connections);
  w.PutU64(3, stats.admitted);
  w.PutU64(4, stats.rejected_overloaded);
  w.PutU64(5, stats.rejected_invalid);
  w.PutU64(6, stats.shed_expired);
  w.PutU64(7, stats.deadline_exceeded);
  w.PutU64(8, stats.completed);
  w.PutU64(9, stats.failed);
  w.PutU64(10, stats.queue_depth);
  w.PutU64(11, stats.queue_capacity);
  w.PutU64(12, stats.workers);
  w.PutU64(13, stats.p50_micros);
  w.PutU64(14, stats.p99_micros);
  w.PutU64(15, stats.uptime_millis);
  w.PutU8(16, stats.draining ? 1 : 0);
  w.PutU64(17, stats.segments);
  w.PutU64(18, stats.compactions);
  w.PutU64(19, stats.compaction_reclaimed_rows);
  w.PutU64(20, stats.compaction_reclaimed_bytes);
  return w.Take();
}

Result<ServerStats> DecodeServerStats(const std::vector<uint8_t>& body) {
  ServerStats stats;
  FieldReader reader(body.data(), body.size());
  while (!reader.Done()) {
    INCDB_ASSIGN_OR_RETURN(const Field field, reader.Next());
    uint64_t* slot = nullptr;
    switch (field.id) {
      case 1: slot = &stats.accepted_connections; break;
      case 2: slot = &stats.active_connections; break;
      case 3: slot = &stats.admitted; break;
      case 4: slot = &stats.rejected_overloaded; break;
      case 5: slot = &stats.rejected_invalid; break;
      case 6: slot = &stats.shed_expired; break;
      case 7: slot = &stats.deadline_exceeded; break;
      case 8: slot = &stats.completed; break;
      case 9: slot = &stats.failed; break;
      case 10: slot = &stats.queue_depth; break;
      case 11: slot = &stats.queue_capacity; break;
      case 12: slot = &stats.workers; break;
      case 13: slot = &stats.p50_micros; break;
      case 14: slot = &stats.p99_micros; break;
      case 15: slot = &stats.uptime_millis; break;
      case 17: slot = &stats.segments; break;
      case 18: slot = &stats.compactions; break;
      case 19: slot = &stats.compaction_reclaimed_rows; break;
      case 20: slot = &stats.compaction_reclaimed_bytes; break;
      case 16: {
        INCDB_ASSIGN_OR_RETURN(const uint8_t v, FieldU8(field));
        stats.draining = v != 0;
        break;
      }
      default: break;
    }
    if (slot != nullptr) {
      INCDB_ASSIGN_OR_RETURN(*slot, FieldU64(field));
    }
  }
  return stats;
}

}  // namespace wire
}  // namespace server
}  // namespace incdb
