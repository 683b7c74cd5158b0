// logr_serve — workload-analytics daemon over a directory of summaries.
//
//   logr_serve --dir DIR [--listen ENDPOINT] [--rescan-ms N]
//              [--max-conns N] [--idle-ms N] [--drain-ms N]
//
// Loads every *.logr summary in DIR and serves the line protocol
// (serve/protocol.h) on ENDPOINT — "unix:PATH" for a Unix domain
// socket, "tcp:HOST:PORT" / "PORT" for TCP; port 0 picks an ephemeral
// port, printed on startup. The directory is rescanned every
// --rescan-ms milliseconds (default 500): drop a new summary in (the
// compressor's WriteSummaryFile renames it into place atomically) and
// it goes live without a restart, while in-flight requests drain on
// the snapshot they started with.
//
// The daemon runs one poll reactor thread per core plus the directory
// watch, however many peers connect: an idle connection costs an fd,
// not a thread. It is hardened for hostile and overload traffic:
// --max-conns caps concurrent connections, and so open fds (extras get
// an explicit "err busy" and should retry with backoff — `logr_cli
// query --retries`), --idle-ms cuts slow-loris peers that never send a
// request line, and SIGINT/SIGTERM drain gracefully: requests already
// received finish and flush their replies, bounded by --drain-ms. The
// `stats` protocol verb reports accepted/active/shed/timed-out/
// requests/rescans. Every numeric flag takes decimal digits only, up
// to INT_MAX; anything else exits 2 with the usage text.
//
// Try it:
//   logr_cli compress --out summaries/prod.logr prod.sql
//   logr_serve --dir summaries --listen tcp:127.0.0.1:7979 &
//   logr_cli query tcp:127.0.0.1:7979 estimate prod "FROM:orders"
//   printf 'list\nquit\n' | nc 127.0.0.1 7979
#include <unistd.h>

#include <climits>
#include <csignal>
#include <cstdio>
#include <string>

#include "serve/server.h"
#include "serve/summary_registry.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

/// Parses a flag value strictly: decimal digits only, at most INT_MAX.
/// Rejects what std::atoi would quietly accept — "abc" (0), "3O000"
/// (3) and "-1" (a wrapped, near-infinite cap).
bool ParseFlag(const char* text, int* out) {
  if (*text == '\0') return false;
  long long value = 0;
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return false;
    value = value * 10 + (*c - '0');
    if (value > INT_MAX) return false;
  }
  *out = static_cast<int>(value);
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: logr_serve --dir DIR [--listen ENDPOINT] "
               "[--rescan-ms N]\n"
               "                  [--max-conns N] [--idle-ms N] "
               "[--drain-ms N]\n"
               "  ENDPOINT: unix:PATH | tcp:HOST:PORT | PORT "
               "(default tcp:127.0.0.1:0 = ephemeral)\n"
               "  --max-conns: concurrent-connection cap; extras get "
               "'err busy' (default 64, 0 = off)\n"
               "  --idle-ms:   per-connection idle/read deadline "
               "(default 30000, 0 = off)\n"
               "  --drain-ms:  shutdown drain budget for in-flight "
               "requests (default 2000)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  logr::ServeOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else if (arg == "--listen" && i + 1 < argc) {
      opts.listen = argv[++i];
    } else if (i + 1 < argc &&
               (arg == "--rescan-ms" || arg == "--max-conns" ||
                arg == "--idle-ms" || arg == "--drain-ms")) {
      int value = 0;
      if (!ParseFlag(argv[++i], &value)) {
        std::fprintf(stderr, "%s must be an integer in [0, %d]\n",
                     arg.c_str(), INT_MAX);
        return Usage();
      }
      if (arg == "--rescan-ms") opts.rescan_interval_ms = value;
      if (arg == "--max-conns") opts.max_connections = value;
      if (arg == "--idle-ms") opts.idle_timeout_ms = value;
      if (arg == "--drain-ms") opts.drain_timeout_ms = value;
    } else {
      return Usage();
    }
  }
  if (dir.empty()) return Usage();

  logr::SummaryRegistry registry(dir);
  logr::ServeDaemon daemon(&registry);
  std::string error;
  if (!daemon.Start(opts, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  // One line, flushed, so wrapper scripts can scrape the endpoint (the
  // ephemeral-port case) before the first client connects.
  std::printf("serving %s at %s (%zu summaries)\n", dir.c_str(),
              daemon.endpoint().c_str(), registry.List().size());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) ::pause();

  daemon.Stop();
  std::printf("stopped after %llu connections\n",
              static_cast<unsigned long long>(daemon.ConnectionsAccepted()));
  return 0;
}
