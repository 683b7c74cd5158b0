#include "util/file_io.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>

namespace logr {

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

bool WriteFileAtomically(const std::string& path, const char* what,
                         const std::function<bool(std::ostream*)>& write,
                         std::string* error) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return Fail(error, "cannot open for writing: " + tmp);
  const bool wrote = write(&out);
  out.close();  // flushes; a failed flush or close sets failbit
  if (!wrote || !out) {
    std::remove(tmp.c_str());
    return wrote ? Fail(error, "write failed: " + tmp) : false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Fail(error, std::string("cannot publish ") + what +
                           " (rename failed): " + path);
  }
  return true;
}

bool ReadWholeFile(const std::string& path, std::vector<char>* bytes,
                   std::string* error) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Fail(error, "cannot open for reading: " + path);
  const std::streamoff end = in.tellg();
  if (end < 0) return Fail(error, "cannot determine size of: " + path);
  bytes->assign(static_cast<std::size_t>(end), '\0');
  in.seekg(0);
  if (!bytes->empty()) {
    in.read(bytes->data(), static_cast<std::streamsize>(bytes->size()));
  }
  if (!in || in.gcount() != end) return Fail(error, "read failed: " + path);
  return true;
}

}  // namespace logr
