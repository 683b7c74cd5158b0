// Wall-clock stopwatch used by the benchmark harness for the paper's
// runtime figures (Fig. 2c, Fig. 5c, Fig. 7, Fig. 8b).
#ifndef LOGR_UTIL_STOPWATCH_H_
#define LOGR_UTIL_STOPWATCH_H_

#include <chrono>

namespace logr {

/// Monotonic stopwatch. Starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace logr

#endif  // LOGR_UTIL_STOPWATCH_H_
