// Little-endian byte helpers shared by LogR's binary formats: the
// columnar query log (workload/binary_log.h, "logr-log v1") and the
// compact summary (core/serialization.h, summary v4).
//
// Fixed-width values are stored in host order, so both formats refuse
// big-endian hosts up front (HostIsLittleEndian). Varints are unsigned
// LEB128: seven bits per byte, low bits first, high bit set on every
// byte but the last.
#ifndef LOGR_UTIL_BYTES_H_
#define LOGR_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace logr {

inline bool HostIsLittleEndian() {
  const std::uint16_t probe = 1;
  unsigned char first;
  std::memcpy(&first, &probe, 1);
  return first == 1;
}

inline std::uint32_t LoadU32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t LoadU64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline double LoadF64(const char* p) {
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void AppendU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void AppendU32(std::string* out, std::uint32_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

inline void AppendU64(std::string* out, std::uint64_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

inline void AppendF64(std::string* out, double v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

inline void AppendVarint(std::string* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Decodes one varint from [*p, end) and advances *p past it. Returns
/// false on truncation or on a value that does not fit 64 bits.
inline bool GetVarint(const char** p, const char* end, std::uint64_t* v) {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*p == end) return false;
    const std::uint8_t byte = static_cast<std::uint8_t>(**p);
    ++*p;
    // The tenth byte may carry only the top bit of a u64.
    if (shift == 63 && byte > 1) return false;
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = value;
      return true;
    }
  }
  return false;
}

}  // namespace logr

#endif  // LOGR_UTIL_BYTES_H_
