#include "util/subprocess.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace logr {

long ForkProcess(const std::function<int()>& child_main, std::string* error) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    if (error) *error = std::string("fork: ") + std::strerror(errno);
    return -1;
  }
  if (pid == 0) {
    ::_exit(child_main());
  }
  return static_cast<long>(pid);
}

namespace {

void FillStatus(int raw, ProcessStatus* status) {
  *status = ProcessStatus();
  if (WIFEXITED(raw)) {
    status->exited = true;
    status->exit_code = WEXITSTATUS(raw);
  } else if (WIFSIGNALED(raw)) {
    status->signaled = true;
    status->term_signal = WTERMSIG(raw);
  }
}

}  // namespace

bool TryWaitProcess(long pid, ProcessStatus* status) {
  int raw = 0;
  const pid_t r = ::waitpid(static_cast<pid_t>(pid), &raw, WNOHANG);
  if (r != static_cast<pid_t>(pid)) return false;
  FillStatus(raw, status);
  return true;
}

bool WaitProcess(long pid, ProcessStatus* status) {
  int raw = 0;
  pid_t r;
  do {
    r = ::waitpid(static_cast<pid_t>(pid), &raw, 0);
  } while (r < 0 && errno == EINTR);
  if (r != static_cast<pid_t>(pid)) return false;
  FillStatus(raw, status);
  return true;
}

void KillProcess(long pid) {
  ::kill(static_cast<pid_t>(pid), SIGKILL);
  ProcessStatus ignored;
  WaitProcess(pid, &ignored);
}

}  // namespace logr
