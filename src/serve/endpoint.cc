#include "serve/endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/un.h>

#include <cstring>

#include "util/flags.h"

namespace logr {

bool ParseEndpoint(const std::string& spec, Endpoint* out, std::string* error) {
  const auto fail = [&](const char* what) {
    if (error != nullptr) *error = std::string(what) + " in endpoint: " + spec;
    return false;
  };
  *out = Endpoint();
  if (spec.rfind("unix:", 0) == 0) {
    auto* addr = reinterpret_cast<sockaddr_un*>(&out->storage);
    out->path = spec.substr(5);
    if (out->path.empty() || out->path.size() >= sizeof(addr->sun_path)) {
      return fail("unix socket path empty or too long");
    }
    out->family = AF_UNIX;
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, out->path.c_str(), out->path.size() + 1);
    out->length = sizeof(sockaddr_un);
    return true;
  }
  std::string port_text = spec.rfind("tcp:", 0) == 0 ? spec.substr(4) : spec;
  out->host = "127.0.0.1";
  const std::size_t colon = port_text.rfind(':');
  if (colon != std::string::npos) {
    out->host = port_text.substr(0, colon);
    port_text.erase(0, colon + 1);
  }
  std::uint64_t port = 0;
  if (!ParseUint64(port_text, 0, 65535, &port)) return fail("bad port");
  auto* addr = reinterpret_cast<sockaddr_in*>(&out->storage);
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, out->host.c_str(), &addr->sin_addr) != 1) {
    return fail("bad host");
  }
  out->length = sizeof(sockaddr_in);
  return true;
}

}  // namespace logr
