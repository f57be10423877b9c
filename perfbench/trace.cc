#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_span{1};
std::atomic<uint64_t> g_next_request{1};

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  /// Innermost open span on this thread (parent of the next one).
  const SpanRecord* open = nullptr;
};

// Buffers outlive their threads so spans can be collected after the
// workload's threads have been joined.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<uint32_t>(g_buffers.size());
    buffer->spans.reserve(1 << 16);
  }
  return *buffer;
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void SetTracing(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

uint64_t NewRequestId() {
  return g_next_request.fetch_add(1, std::memory_order_relaxed);
}

Span::Span(const char* name, uint64_t request) {
  if (!TracingEnabled()) return;
  ThreadBuffer& buffer = LocalBuffer();
  active_ = true;
  record_.name = name;
  record_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  record_.thread = buffer.thread;
  if (buffer.open != nullptr) {
    record_.parent = buffer.open->id;
    record_.request = request != 0 ? request : buffer.open->request;
  } else {
    record_.request = request;
  }
  enclosing_ = buffer.open;
  buffer.open = &record_;
  record_.start_ns = NowNanos();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = NowNanos();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.spans.push_back(record_);
  // Spans nest strictly per thread: the enclosing span is still open
  // further up this thread's stack.
  buffer.open = enclosing_;
}

std::vector<SpanRecord> CollectSpans() {
  std::vector<SpanRecord> all;
  const std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const SpanRecord& span : spans) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"thread\":%u,\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 span.name, static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request), span.thread,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

std::vector<double> SpanMicros(const std::vector<SpanRecord>& spans,
                               const char* name) {
  std::vector<double> out;
  for (const SpanRecord& span : spans) {
    if (std::strcmp(span.name, name) == 0) out.push_back(span.micros());
  }
  return out;
}

}  // namespace perfbench
