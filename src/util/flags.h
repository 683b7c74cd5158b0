// Strict command-line flags, shared by logr_cli and logr_serve. A
// command declares a table of flags and the positional arguments it
// takes; ParseFlags walks its argv once and fails with one line that
// names the flag and, for an integer, its range. The binaries print it
// with their usage text and exit 2.
#ifndef LOGR_UTIL_FLAGS_H_
#define LOGR_UTIL_FLAGS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace logr {

/// Parses `text` as a decimal integer in [min, max]. Returns false for
/// anything else: empty text, a sign, a space, trailing characters, or
/// a value past `max` (UINT64_MAX included).
bool ParseUint64(std::string_view text, std::uint64_t min, std::uint64_t max,
                 std::uint64_t* out);

/// One entry of a flag table: `--name VALUE` for an integer or string
/// flag, `--name` alone for a presence flag.
struct Flag {
  /// Integer flag: N in [lo, hi], and at most T's maximum, so an int
  /// flag stops at INT_MAX instead of wrapping when narrowed.
  template <typename T>
  Flag(const char* flag, T* target, std::uint64_t lo = 0,
       std::uint64_t hi = UINT64_MAX)
      : name(flag),
        min(lo),
        max(std::min<std::uint64_t>(hi, std::numeric_limits<T>::max())),
        set([target](std::uint64_t v) { *target = static_cast<T>(v); }) {
    static_assert(std::is_integral_v<T>, "an integer flag");
  }

  /// Integer flag whose target also records that the flag was given.
  template <typename T>
  Flag(const char* flag, std::optional<T>* target, std::uint64_t lo = 0,
       std::uint64_t hi = UINT64_MAX)
      : name(flag),
        min(lo),
        max(std::min<std::uint64_t>(hi, std::numeric_limits<T>::max())),
        set([target](std::uint64_t v) { *target = static_cast<T>(v); }) {}

  Flag(const char* flag, std::string* target) : name(flag), string(target) {}
  Flag(const char* flag, bool* target) : name(flag), presence(target) {}

  std::string_view name;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::function<void(std::uint64_t)> set;  // integer flags only
  std::string* string = nullptr;
  bool* presence = nullptr;  // set to true when the flag appears
};

/// The positional arguments a command takes, appended to `*target`.
struct Positionals {
  std::vector<std::string>* target = nullptr;
  std::size_t min = 0;
  std::size_t max = 0;
  /// The first positional argument ends the flags: it and every later
  /// argument are positional, verbatim (a request line, estimate terms).
  bool verbatim_tail = false;
};

/// Parses `args` (no argv0, no subcommand) against `flags` and
/// `positional`. A flag's value is the next argument, verbatim, whatever
/// it starts with; an integer value is decimal digits only (ParseUint64).
/// Any other argument that is empty or starts with '-' is an unknown
/// flag, and the rest are positional. A repeated flag keeps its last
/// value. Returns false and fills `error` on an unknown flag, a missing
/// or bad value, or a positional count outside [min, max].
bool ParseFlags(const std::vector<std::string>& args,
                const std::vector<Flag>& flags, const Positionals& positional,
                std::string* error);

}  // namespace logr

#endif  // LOGR_UTIL_FLAGS_H_
