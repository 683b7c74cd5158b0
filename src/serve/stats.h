// Observability counters for the serve daemon.
//
// The hardening layer (connection cap, deadlines, drain) is only
// trustworthy if its decisions are visible: a shed connection that is
// not counted is indistinguishable from a network failure. ServeCounters
// is the single shared ledger — the daemon's reactor threads write it,
// the protocol's `stats` verb reads it, and the chaos tests reconcile
// it against the traffic they generated. All fields are
// monotonic except `active`, and all are relaxed atomics: each counter
// is an independent tally, no cross-field ordering is implied or needed.
#ifndef LOGR_SERVE_STATS_H_
#define LOGR_SERVE_STATS_H_

#include <atomic>
#include <cstdint>

namespace logr {

struct ServeCounters {
  /// Connections that were given a serving slot (excludes shed ones).
  std::atomic<std::uint64_t> accepted{0};
  /// Connections currently open, each an fd and a small record on the
  /// reactor that accepted it (incremented when a slot is claimed at
  /// accept, decremented when the connection closes). Bounded by
  /// `max_connections`.
  std::atomic<std::uint64_t> active{0};
  /// Connections refused with "err busy" because `max_connections`
  /// slots were taken. Never silently dropped — every shed peer gets
  /// the reply and every shed is counted here.
  std::atomic<std::uint64_t> shed{0};
  /// Connections closed for blowing a deadline: idle (no request bytes
  /// within `idle_timeout_ms`) or write (peer stopped reading a reply
  /// for `write_timeout_ms`).
  std::atomic<std::uint64_t> timed_out{0};
  /// Request lines answered, across all connections — including "quit"
  /// and the "stats" request reporting this very counter.
  std::atomic<std::uint64_t> requests{0};
};

}  // namespace logr

#endif  // LOGR_SERVE_STATS_H_
