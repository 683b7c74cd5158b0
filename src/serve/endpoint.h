// The endpoint grammar ServeDaemon binds and ServeClient connects to:
// "unix:PATH" | "tcp:HOST:PORT" | "HOST:PORT" | "PORT". PATH is
// non-empty and shorter than sockaddr_un's sun_path. HOST is a dotted
// IPv4 address (inet_pton takes no names), 127.0.0.1 when omitted.
// PORT is decimal in [0, 65535] (ParseUint64); the daemon binds port 0
// to an ephemeral port.
#ifndef LOGR_SERVE_ENDPOINT_H_
#define LOGR_SERVE_ENDPOINT_H_

#include <sys/socket.h>

#include <string>

namespace logr {

struct Endpoint {
  int family = AF_INET;  ///< AF_UNIX or AF_INET
  std::string path;      ///< socket path (AF_UNIX)
  std::string host;      ///< dotted address (AF_INET)
  sockaddr_storage storage{};
  socklen_t length = 0;

  const sockaddr* addr() const {
    return reinterpret_cast<const sockaddr*>(&storage);
  }
};

/// Parses `spec` into `out`. Returns false and fills `error` with one
/// line naming `spec` when it does not follow the grammar.
bool ParseEndpoint(const std::string& spec, Endpoint* out, std::string* error);

}  // namespace logr

#endif  // LOGR_SERVE_ENDPOINT_H_
