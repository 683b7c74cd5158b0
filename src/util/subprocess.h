// Minimal POSIX process helpers for the distributed coordinator
// (core/distributed.h): fork a worker that runs a callable, poll or
// wait for its exit, and kill stragglers. Everything here is
// wait()-reap-safe: every forked pid is reaped exactly once, by
// TryWaitProcess, WaitProcess, or KillProcess. The library is
// POSIX-only, like the serve daemon's sockets.
#ifndef LOGR_UTIL_SUBPROCESS_H_
#define LOGR_UTIL_SUBPROCESS_H_

#include <functional>
#include <string>

namespace logr {

/// How a reaped child ended.
struct ProcessStatus {
  bool exited = false;    // normal exit (exit_code valid)
  int exit_code = -1;
  bool signaled = false;  // killed by a signal (term_signal valid)
  int term_signal = 0;

  bool Success() const { return exited && exit_code == 0; }
};

/// Plain fork: the child runs `child_main` and _exit()s with its return
/// value, never returning to the caller's code. The child inherits the
/// parent's environment and stdio. The child must not touch
/// the parent's thread pools — pthreads do not survive fork (only the
/// forking thread exists in the child), so any ParallelFor dispatched to
/// a pre-fork pool would wait forever. Returns the child pid, or -1 with
/// `error` filled.
long ForkProcess(const std::function<int()>& child_main, std::string* error);

/// Non-blocking reap (waitpid WNOHANG). Returns true when the child was
/// reaped into `status`; false while it is still running.
bool TryWaitProcess(long pid, ProcessStatus* status);

/// Blocking reap.
bool WaitProcess(long pid, ProcessStatus* status);

/// SIGKILLs `pid` and reaps it (blocking). Safe on already-dead pids
/// that have not been reaped yet.
void KillProcess(long pid);

}  // namespace logr

#endif  // LOGR_UTIL_SUBPROCESS_H_
