// Small string helpers shared by the SQL lexer, feature codebook, and
// bench output formatting. Kept dependency-free.
#ifndef LOGR_UTIL_STRING_UTIL_H_
#define LOGR_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace logr {

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace logr

#endif  // LOGR_UTIL_STRING_UTIL_H_
