// In-memory span recorder for the end-to-end benchmark.
//
// Spans are recorded by the benchmark around its calls into the
// library's public functions (the library itself is not instrumented).
// Each span has a name ("<layer>.<what>"), a start and an end on the
// steady clock, the span that caused it, and an optional request id
// shared by every span of one served request. Each thread appends to
// its own buffer, so recording takes no lock; buffers are merged once,
// after the worker threads have been joined.
//
// Tracing is off unless Enable() was called; every entry point then
// returns after one branch, which is what keeps the untraced run the
// one the end-to-end numbers come from.
#ifndef LOGR_BENCH_E2E_TRACE_H_
#define LOGR_BENCH_E2E_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// Steady-clock nanoseconds since the first call in this process.
std::int64_t NowNs();

/// Index of a span in its thread's buffer; kNoSpan for "no parent".
using SpanHandle = std::int32_t;
inline constexpr SpanHandle kNoSpan = -1;
/// Parent selector for Tracer::Add: the innermost span still open on
/// the calling thread.
inline constexpr SpanHandle kInnermost = -2;

struct SpanRecord {
  const char* name = "";  ///< static string, "<layer>.<what>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the merged vector, -1 = root
  std::uint32_t thread = 0;
  std::uint64_t request = 0;  ///< 0 = not part of a served request

  double DurationUs() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  static void Enable();
  static bool On();

  /// Opens a span under the innermost open span of this thread.
  static SpanHandle Begin(const char* name);
  static void End(SpanHandle span);

  /// Records a finished span [start_ns, end_ns]; returns its handle so
  /// later Add calls can name it as their parent.
  static SpanHandle Add(const char* name, std::int64_t start_ns,
                        std::int64_t end_ns, std::uint64_t request = 0,
                        SpanHandle parent = kInnermost);

  /// Every span of every thread, parents remapped into the merged
  /// vector. Call only after all recording threads have been joined.
  static std::vector<SpanRecord> Collect();
};

/// RAII span; costs one branch when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : handle_(Tracer::On() ? Tracer::Begin(name) : kNoSpan) {}
  ~ScopedSpan() {
    if (handle_ != kNoSpan) Tracer::End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanHandle handle_;
};

/// Self time of each span: its duration minus the part its children
/// cover (children of one span never overlap: they run on its thread).
std::vector<std::int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

/// Writes `spans` as Chrome trace-event JSON (loads in Perfetto and
/// chrome://tracing). At most `max_events` spans are written, earliest
/// first; the number dropped is recorded in the file's metadata.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans,
                      std::size_t max_events, std::string* error);

}  // namespace e2e

#endif  // LOGR_BENCH_E2E_TRACE_H_
