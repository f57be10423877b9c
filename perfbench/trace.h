#ifndef INCDB_PERFBENCH_TRACE_H_
#define INCDB_PERFBENCH_TRACE_H_

// In-memory span recorder for the traced benchmark run.
//
// Spans are opened around calls into the library's public functions from
// the benchmark's own code (never inside the library). Each span records a
// name, start and end on the steady clock, the enclosing span on the same
// thread (its parent) and a request id shared by every span of one
// request. Spans stay in per-thread buffers while the workload runs and are
// written out once, after every worker thread has been joined.
//
// With tracing disabled a Span is one relaxed atomic load and nothing else,
// so the untraced run measures the library, not the recorder.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  uint64_t id = 0;
  /// Enclosing span on the same thread; 0 for a root span.
  uint64_t parent = 0;
  /// Request the span belongs to; 0 for set-up and maintenance work.
  uint64_t request = 0;
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Turns recording on or off for spans opened from now on.
void SetTracing(bool on);
bool TracingEnabled();

/// A fresh request id (never 0).
uint64_t NewRequestId();

/// Records [construction, destruction) under `name` when tracing is on.
/// `name` must be a string literal (it is stored by pointer). A request id
/// of 0 inherits the enclosing span's request.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
  /// The span that was innermost when this one opened; restored on close.
  const SpanRecord* enclosing_ = nullptr;
};

/// Every span recorded so far, by thread then start time. Call only after
/// the threads that recorded them have been joined.
std::vector<SpanRecord> CollectSpans();

/// Writes `spans` as JSON lines (one span per line) to `path`.
bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

/// Durations in microseconds of every span called `name`.
std::vector<double> SpanMicros(const std::vector<SpanRecord>& spans,
                               const char* name);

}  // namespace perfbench

#endif  // INCDB_PERFBENCH_TRACE_H_
