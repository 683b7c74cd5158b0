// Direct coverage for util/subprocess.{h,cc} beyond the distributed
// coordinator's happy paths. The error paths below are exactly what the
// coordinator leans on under failure: reaping the same pid twice,
// killing a child that already exited, and a child ended by a signal.
#include "util/subprocess.h"

#include <unistd.h>

#include <csignal>
#include <string>

#include "gtest/gtest.h"

namespace logr {
namespace {

TEST(SubprocessTest, ForkChildExitCodeRoundTrips) {
  std::string error;
  const long pid = ForkProcess([] { return 42; }, &error);
  ASSERT_GT(pid, 0) << error;
  ProcessStatus status;
  ASSERT_TRUE(WaitProcess(pid, &status));
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.exit_code, 42);
}

TEST(SubprocessTest, DoubleWaitSecondReapFails) {
  std::string error;
  const long pid = ForkProcess([] { return 0; }, &error);
  ASSERT_GT(pid, 0) << error;
  ProcessStatus status;
  ASSERT_TRUE(WaitProcess(pid, &status));
  EXPECT_TRUE(status.Success());
  // The pid was reaped; a second wait must return false, not block and
  // not report a stale status.
  ProcessStatus second;
  EXPECT_FALSE(WaitProcess(pid, &second));
  EXPECT_FALSE(TryWaitProcess(pid, &second));
}

TEST(SubprocessTest, TryWaitPollsRunningChildThenReaps) {
  std::string error;
  // Child blocks until the parent signals it via SIGKILL below.
  const long pid = ForkProcess([]() -> int {
    for (;;) pause();
  }, &error);
  ASSERT_GT(pid, 0) << error;
  ProcessStatus status;
  EXPECT_FALSE(TryWaitProcess(pid, &status));  // still running
  KillProcess(pid);                            // kills and reaps
  // Already reaped by KillProcess: nothing left to wait on.
  EXPECT_FALSE(TryWaitProcess(pid, &status));
}

TEST(SubprocessTest, KillAfterExitIsSafe) {
  std::string error;
  const long pid = ForkProcess([] { return 3; }, &error);
  ASSERT_GT(pid, 0) << error;
  // Let the child die on its own; the pid stays a zombie (un-reaped),
  // so KillProcess must still reap it without error even though the
  // SIGKILL itself lands on an already-dead process.
  ProcessStatus probe;
  while (!TryWaitProcess(pid, &probe)) {
    // Child may not have exited yet; spin briefly.
  }
  EXPECT_TRUE(probe.exited);
  EXPECT_EQ(probe.exit_code, 3);
  // Fully reaped now: KillProcess on a stale pid is a no-op by contract.
  KillProcess(pid);
}

TEST(SubprocessTest, KillReapsZombie) {
  std::string error;
  const long pid = ForkProcess([] { return 7; }, &error);
  ASSERT_GT(pid, 0) << error;
  // Do NOT wait: the child exits and zombifies. KillProcess must reap
  // it (kill of a zombie succeeds, waitpid then collects the status).
  KillProcess(pid);
  ProcessStatus status;
  EXPECT_FALSE(TryWaitProcess(pid, &status)) << "KillProcess did not reap";
}

TEST(SubprocessTest, WaitOnBogusPidFails) {
  ProcessStatus status;
  // A pid this process never spawned (and cannot have as a child).
  EXPECT_FALSE(TryWaitProcess(999999999L, &status));
  EXPECT_FALSE(WaitProcess(999999999L, &status));
}

TEST(SubprocessTest, SignaledChildReportsTermSignal) {
  std::string error;
  const long pid = ForkProcess([] {
    raise(SIGTERM);
    return 0;  // unreachable
  }, &error);
  ASSERT_GT(pid, 0) << error;
  ProcessStatus status;
  ASSERT_TRUE(WaitProcess(pid, &status));
  EXPECT_FALSE(status.exited);
  EXPECT_TRUE(status.signaled);
  EXPECT_EQ(status.term_signal, SIGTERM);
  EXPECT_FALSE(status.Success());
}

}  // namespace
}  // namespace logr
