// The wire codec is a frozen contract (core/query_api.h, common/status.h):
// these tests pin round-trip fidelity, the compatibility rules (unknown
// fields skipped, absent fields defaulted), and the exact byte layout of a
// frame header, so an accidental renumbering or layout change fails loudly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "server/wire.h"

namespace incdb {
namespace server {
namespace wire {
namespace {

QueryRequest FullRequest() {
  QueryRequest request = QueryRequest::Terms(
      {{"rating", 2, 5}, {"price", -3, 9}}, MissingSemantics::kNoMatch);
  request.CountOnly(false).Parallel(4).Explain(true).DeadlineMillis(250).Limit(
      17);
  return request;
}

TEST(WireTest, FrameHeaderLayoutIsFrozen) {
  uint8_t header[kFrameHeaderBytes];
  PutFrameHeader(MsgType::kQuery, 0x01020304u, header);
  // Little-endian length first, then the type byte — the five bytes every
  // peer ever built parses.
  EXPECT_EQ(header[0], 0x04);
  EXPECT_EQ(header[1], 0x03);
  EXPECT_EQ(header[2], 0x02);
  EXPECT_EQ(header[3], 0x01);
  EXPECT_EQ(header[4], 3);  // MsgType::kQuery

  MsgType type;
  uint32_t body_len = 0;
  ASSERT_TRUE(ParseFrameHeader(header, /*max_body=*/0x02000000u, &type,
                               &body_len)
                  .ok());
  EXPECT_EQ(type, MsgType::kQuery);
  EXPECT_EQ(body_len, 0x01020304u);
}

TEST(WireTest, FrameHeaderRejectsOversizedBody) {
  uint8_t header[kFrameHeaderBytes];
  PutFrameHeader(MsgType::kQuery, 1u << 20, header);
  MsgType type;
  uint32_t body_len = 0;
  const Status status =
      ParseFrameHeader(header, /*max_body=*/1u << 10, &type, &body_len);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, HelloRoundTripsAndCarriesMagic) {
  Hello hello;
  hello.peer_name = "wire_test";
  const auto decoded = DecodeHello(EncodeHello(hello));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->magic, kMagic);
  EXPECT_EQ(decoded->version, kProtocolVersion);
  EXPECT_EQ(decoded->peer_name, "wire_test");
}

TEST(WireTest, QueryRequestRoundTripsEveryField) {
  const QueryRequest request = FullRequest();
  const auto decoded = DecodeQueryRequest(EncodeQueryRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->shape, QueryRequest::Shape::kTerms);
  EXPECT_EQ(decoded->semantics, MissingSemantics::kNoMatch);
  ASSERT_EQ(decoded->terms.size(), 2u);
  EXPECT_EQ(decoded->terms[0].attribute, "rating");
  EXPECT_EQ(decoded->terms[0].lo, 2);
  EXPECT_EQ(decoded->terms[0].hi, 5);
  EXPECT_EQ(decoded->terms[1].attribute, "price");
  EXPECT_EQ(decoded->terms[1].lo, -3);
  EXPECT_EQ(decoded->terms[1].hi, 9);
  EXPECT_FALSE(decoded->count_only);
  EXPECT_EQ(decoded->parallelism, 4u);
  EXPECT_TRUE(decoded->explain);
  EXPECT_EQ(decoded->deadline_millis, 250u);
  EXPECT_EQ(decoded->limit, 17u);
}

TEST(WireTest, ExpressionRequestRoundTripsTheTree) {
  const QueryExpr expr = QueryExpr::MakeAnd(
      {QueryExpr::MakeTerm(0, {2, 5}),
       QueryExpr::MakeNot(QueryExpr::MakeOr({QueryExpr::MakeTerm(1, {1, 1}),
                                             QueryExpr::MakeTerm(2, {3, 7})}))});
  const QueryRequest request = QueryRequest::Expression(expr);
  const auto decoded = DecodeQueryRequest(EncodeQueryRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded->expression.has_value());
  // Structural identity via the canonical rendering.
  EXPECT_EQ(decoded->expression->ToString(), expr.ToString());
}

TEST(WireTest, TextRequestRoundTrips) {
  const QueryRequest request =
      QueryRequest::Text("rating >= 3 AND NOT price = 1");
  const auto decoded = DecodeQueryRequest(EncodeQueryRequest(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->shape, QueryRequest::Shape::kText);
  EXPECT_EQ(decoded->text, "rating >= 3 AND NOT price = 1");
}

TEST(WireTest, DecodeValidatesTheRequest) {
  // Structurally sound TLV, semantically malformed request (no terms):
  // decode must reject it so a daemon never plans it.
  QueryRequest empty;
  empty.shape = QueryRequest::Shape::kTerms;
  const auto decoded = DecodeQueryRequest(EncodeQueryRequest(empty));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, QueryResultRoundTripsStatsAndRouting) {
  QueryResult result;
  result.count = 12345;
  result.row_ids = {0, 7, 31, 4096, 0xFFFFFFFFu};
  result.chosen_index = "BEE-WAH";
  result.epoch = 42;
  result.visible_rows = 1u << 20;
  result.explain = "Sink\n  Probe a0\n";
  result.stats.bitvectors_accessed = 5;
  result.stats.bitvector_ops = 4;
  result.stats.words_touched = 777;
  result.stats.simd_path = 3;
  result.stats.words_decoded = 512;
  result.stats.segments_scanned = 6;
  result.stats.segments_pruned = 2;
  result.routing.index_name = "BEE-WAH";
  result.routing.is_point_query = true;
  result.routing.estimated_selectivity = 0.125;
  result.routing.estimated_cost = 98.5;

  const auto decoded = DecodeQueryResult(EncodeQueryResult(result));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->count, 12345u);
  EXPECT_EQ(decoded->row_ids, result.row_ids);
  EXPECT_EQ(decoded->chosen_index, "BEE-WAH");
  EXPECT_EQ(decoded->epoch, 42u);
  EXPECT_EQ(decoded->visible_rows, 1u << 20);
  EXPECT_EQ(decoded->explain, result.explain);
  EXPECT_EQ(decoded->stats.bitvectors_accessed, 5u);
  EXPECT_EQ(decoded->stats.bitvector_ops, 4u);
  EXPECT_EQ(decoded->stats.words_touched, 777u);
  EXPECT_EQ(decoded->stats.simd_path, 3u);
  EXPECT_EQ(decoded->stats.words_decoded, 512u);
  EXPECT_EQ(decoded->stats.segments_scanned, 6u);
  EXPECT_EQ(decoded->stats.segments_pruned, 2u);
  EXPECT_EQ(decoded->routing.index_name, "BEE-WAH");
  EXPECT_TRUE(decoded->routing.is_point_query);
  EXPECT_DOUBLE_EQ(decoded->routing.estimated_selectivity, 0.125);
  EXPECT_DOUBLE_EQ(decoded->routing.estimated_cost, 98.5);
}

TEST(WireTest, StatusRoundTripsTheNumericCodeVerbatim) {
  for (const StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kDeadlineExceeded, StatusCode::kOverloaded,
        StatusCode::kUnavailable, StatusCode::kInternal}) {
    const Status original(code, "remote message");
    const Status decoded = DecodeStatus(EncodeStatus(original));
    EXPECT_EQ(decoded.code(), code);
    EXPECT_EQ(decoded.message(), "remote message");
  }
}

TEST(WireTest, UnknownFutureStatusCodeDegradesToInternal) {
  // A newer server may answer with a code this build predates; the client
  // must preserve the information without fabricating an enum value.
  std::vector<uint8_t> body;
  // field 1 (u32 code), hand-rolled: id=1, len=4, value=9999.
  const uint8_t raw[] = {1, 0, 4, 0, 0, 0, 0x0F, 0x27, 0, 0};
  body.assign(raw, raw + sizeof(raw));
  const Status decoded = DecodeStatus(body);
  EXPECT_EQ(decoded.code(), StatusCode::kInternal);
  EXPECT_NE(decoded.message().find("9999"), std::string::npos);
}

TEST(WireTest, ServerStatsRoundTrips) {
  ServerStats stats;
  stats.accepted_connections = 10;
  stats.active_connections = 3;
  stats.admitted = 100;
  stats.rejected_overloaded = 7;
  stats.rejected_invalid = 2;
  stats.shed_expired = 1;
  stats.deadline_exceeded = 4;
  stats.completed = 88;
  stats.failed = 5;
  stats.queue_depth = 6;
  stats.queue_capacity = 64;
  stats.workers = 8;
  stats.p50_micros = 1500;
  stats.p99_micros = 90000;
  stats.uptime_millis = 123456;
  stats.draining = true;
  stats.segments = 17;
  stats.compactions = 3;
  stats.compaction_reclaimed_rows = 999;
  stats.compaction_reclaimed_bytes = 11988;
  const auto decoded = DecodeServerStats(EncodeServerStats(stats));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->accepted_connections, 10u);
  EXPECT_EQ(decoded->active_connections, 3u);
  EXPECT_EQ(decoded->admitted, 100u);
  EXPECT_EQ(decoded->rejected_overloaded, 7u);
  EXPECT_EQ(decoded->rejected_invalid, 2u);
  EXPECT_EQ(decoded->shed_expired, 1u);
  EXPECT_EQ(decoded->deadline_exceeded, 4u);
  EXPECT_EQ(decoded->completed, 88u);
  EXPECT_EQ(decoded->failed, 5u);
  EXPECT_EQ(decoded->queue_depth, 6u);
  EXPECT_EQ(decoded->queue_capacity, 64u);
  EXPECT_EQ(decoded->workers, 8u);
  EXPECT_EQ(decoded->p50_micros, 1500u);
  EXPECT_EQ(decoded->p99_micros, 90000u);
  EXPECT_EQ(decoded->uptime_millis, 123456u);
  EXPECT_TRUE(decoded->draining);
  EXPECT_EQ(decoded->segments, 17u);
  EXPECT_EQ(decoded->compactions, 3u);
  EXPECT_EQ(decoded->compaction_reclaimed_rows, 999u);
  EXPECT_EQ(decoded->compaction_reclaimed_bytes, 11988u);
}

TEST(WireTest, DecoderSkipsUnknownFieldsForForwardCompatibility) {
  // A frame from a future peer: a known message with an extra field id
  // 999 prepended AND appended. Today's decoder must ignore both.
  const std::vector<uint8_t> known = EncodeQueryRequest(FullRequest());
  const uint8_t unknown_field[] = {0xE7, 0x03, 3, 0, 0, 0, 0xAA, 0xBB, 0xCC};
  // Sized once and filled by copy: growing a vector that starts empty
  // trips gcc 12's -Warray-bounds / -Wstringop-overflow false positives.
  std::vector<uint8_t> extended(known.size() + 2 * sizeof(unknown_field));
  auto out = std::copy(std::begin(unknown_field), std::end(unknown_field),
                       extended.begin());
  out = std::copy(known.begin(), known.end(), out);
  std::copy(std::begin(unknown_field), std::end(unknown_field), out);
  const auto decoded = DecodeQueryRequest(extended);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->terms.size(), 2u);
  EXPECT_EQ(decoded->limit, 17u);
}

TEST(WireTest, AbsentFieldsDefaultForBackwardCompatibility) {
  // A minimal frame from an older peer: only shape + one term. Everything
  // else must take the in-process defaults.
  const std::vector<uint8_t> minimal =
      EncodeQueryRequest(QueryRequest::Terms({{"a0", 1, 2}}));
  const auto decoded = DecodeQueryRequest(minimal);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->semantics, MissingSemantics::kMatch);
  EXPECT_FALSE(decoded->count_only);
  EXPECT_EQ(decoded->parallelism, 1u);
  EXPECT_EQ(decoded->deadline_millis, 0u);
  EXPECT_EQ(decoded->limit, 0u);
}

TEST(WireTest, TruncatedBodiesAreCleanErrors) {
  const std::vector<uint8_t> full = EncodeQueryRequest(FullRequest());
  // Chop the encoding at every prefix length: no prefix may crash, and
  // any that parses must still validate as a well-formed request.
  for (size_t len = 0; len < full.size(); ++len) {
    const std::vector<uint8_t> prefix(full.begin(), full.begin() + len);
    const auto decoded = DecodeQueryRequest(prefix);
    if (decoded.ok()) {
      EXPECT_TRUE(decoded->Validate().ok()) << "prefix " << len;
    } else {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << "prefix " << len;
    }
  }
}

TEST(WireTest, GarbageBytesAreCleanErrors) {
  // Deterministic xorshift garbage at several lengths; decode must always
  // return (no crash, no hang, no UB — the asan job proves the "no UB").
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (const size_t len : {1u, 7u, 64u, 513u, 4096u}) {
    std::vector<uint8_t> garbage(len);
    for (auto& byte : garbage) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      byte = static_cast<uint8_t>(state);
    }
    (void)DecodeQueryRequest(garbage);
    (void)DecodeQueryResult(garbage);
    (void)DecodeHello(garbage);
    (void)DecodeServerStats(garbage);
    (void)DecodeStatus(garbage);
  }
}

TEST(WireTest, HostileExpressionNestingIsBounded) {
  // 1000 nested NOTs would recurse the decoder 1000 deep; the cap must
  // reject it as invalid input, not overflow the stack.
  QueryExpr expr = QueryExpr::MakeTerm(0, {1, 2});
  for (int i = 0; i < 1000; ++i) expr = QueryExpr::MakeNot(expr);
  const std::vector<uint8_t> body =
      EncodeQueryRequest(QueryRequest::Expression(expr));
  const auto decoded = DecodeQueryRequest(body);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace wire
}  // namespace server
}  // namespace incdb
