#include "util/flags.h"

#include "util/string_util.h"

namespace logr {

bool ParseUint64(std::string_view text, std::uint64_t min, std::uint64_t max,
                 std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  if (value < min || value > max) return false;
  *out = value;
  return true;
}

bool ParseFlags(const std::vector<std::string>& args,
                const std::vector<Flag>& flags, const Positionals& positional,
                std::string* error) {
  std::size_t num_positional = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool tail = positional.verbatim_tail && num_positional > 0;
    if (tail || (!arg.empty() && arg[0] != '-')) {
      if (++num_positional > positional.max) {
        *error = StrFormat("unexpected argument \"%s\" (at most %zu)",
                           arg.c_str(), positional.max);
        return false;
      }
      positional.target->push_back(arg);
      continue;
    }
    const Flag* flag = nullptr;
    for (const Flag& f : flags) {
      if (f.name == arg) flag = &f;
    }
    if (flag == nullptr) {
      *error = StrFormat("unknown flag \"%s\"", arg.c_str());
      return false;
    }
    if (flag->presence != nullptr) {
      *flag->presence = true;
      continue;
    }
    // "--name: expected ..., got ..." is the one shape of a bad value.
    const std::string expected =
        flag->string != nullptr
            ? arg + ": expected a value"
            : StrFormat("%s: expected an integer in [%llu, %llu]",
                        arg.c_str(),
                        static_cast<unsigned long long>(flag->min),
                        static_cast<unsigned long long>(flag->max));
    if (i + 1 == args.size()) {
      *error = expected + ", got none";
      return false;
    }
    const std::string& value = args[++i];
    std::uint64_t parsed = 0;
    if (flag->string != nullptr) {
      *flag->string = value;
    } else if (ParseUint64(value, flag->min, flag->max, &parsed)) {
      flag->set(parsed);
    } else {
      *error = expected + ", got \"" + value + "\"";
      return false;
    }
  }
  if (num_positional < positional.min) {
    *error = StrFormat("expected at least %zu argument%s, got %zu",
                       positional.min, positional.min == 1 ? "" : "s",
                       num_positional);
    return false;
  }
  return true;
}

}  // namespace logr
