#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>

namespace e2e {

namespace {

std::atomic<bool> g_on{false};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;  ///< parent indexes this buffer
  std::vector<SpanHandle> open;   ///< stack of spans begun, not ended
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // g_buffers_mu

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
    return g_buffers.back().get();
  }();
  return *buffer;
}

SpanHandle Push(ThreadBuffer& buf, const char* name, std::int64_t start_ns,
                std::int64_t end_ns, std::uint64_t request,
                SpanHandle parent) {
  SpanRecord span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = parent;
  span.thread = buf.thread;
  span.request = request;
  buf.spans.push_back(span);
  return static_cast<SpanHandle>(buf.spans.size() - 1);
}

}  // namespace

std::int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void Tracer::Enable() { g_on.store(true); }

bool Tracer::On() { return g_on.load(std::memory_order_relaxed); }

SpanHandle Tracer::Begin(const char* name) {
  ThreadBuffer& buf = LocalBuffer();
  const SpanHandle parent = buf.open.empty() ? kNoSpan : buf.open.back();
  const SpanHandle h = Push(buf, name, NowNs(), 0, 0, parent);
  buf.open.push_back(h);
  return h;
}

void Tracer::End(SpanHandle span) {
  ThreadBuffer& buf = LocalBuffer();
  buf.spans[static_cast<std::size_t>(span)].end_ns = NowNs();
  if (!buf.open.empty() && buf.open.back() == span) buf.open.pop_back();
}

SpanHandle Tracer::Add(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t request,
                       SpanHandle parent) {
  if (!On()) return kNoSpan;
  ThreadBuffer& buf = LocalBuffer();
  if (parent == kInnermost) {
    parent = buf.open.empty() ? kNoSpan : buf.open.back();
  }
  return Push(buf, name, start_ns, end_ns, request, parent);
}

std::vector<SpanRecord> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> merged;
  for (const auto& buf : g_buffers) {
    const std::int64_t offset = static_cast<std::int64_t>(merged.size());
    for (SpanRecord span : buf->spans) {
      if (span.parent >= 0) span.parent += offset;
      merged.push_back(span);
    }
  }
  return merged;
}

std::vector<std::int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -=
          span.end_ns - span.start_ns;
    }
  }
  return self;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans,
                      std::size_t max_events, std::string* error) {
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return spans[a].start_ns < spans[b].start_ns;
                   });
  const std::size_t written = std::min(max_events, order.size());

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    *error = "cannot write " + path;
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans\":%zu,"
               "\"dropped_spans\":%zu},\"traceEvents\":[\n",
               spans.size(), spans.size() - written);
  for (std::size_t k = 0; k < written; ++k) {
    const std::size_t i = order[k];
    const SpanRecord& s = spans[i];
    // The layer is the name's prefix up to the first '.'.
    const char* dot = s.name;
    while (*dot != '\0' && *dot != '.') ++dot;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"span\":%zu,\"parent\":%lld,\"request\":%llu}}",
                 k == 0 ? "" : ",\n", s.name,
                 static_cast<int>(dot - s.name), s.name,
                 static_cast<double>(s.start_ns) / 1e3, s.DurationUs(),
                 s.thread, i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) {
    *error = "cannot finish " + path;
    return false;
  }
  return true;
}

}  // namespace e2e
