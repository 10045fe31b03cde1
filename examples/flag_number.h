// Whole-value numeric flag parsing for the example binaries. A `--key=value`
// flag's value must be one number with nothing before or after it, inside
// the flag's range; anything else prints the flag and exits 2, as an
// unknown daemon flag does. A typo must never become a different run: "abc"
// read as 0 turns a candidate budget into a wall-clock one, and "-1" read
// as an unsigned turns a bounded queue into an unbounded one.
#ifndef ALPHAEVOLVE_EXAMPLES_FLAG_NUMBER_H_
#define ALPHAEVOLVE_EXAMPLES_FLAG_NUMBER_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <system_error>
#include <type_traits>

namespace alphaevolve::examples {

/// Largest integer a JSON number (a double) carries exactly: the top of
/// every --max-candidates range (submit_search's range too).
inline constexpr int64_t kMaxFlagCandidates = int64_t{1} << 53;

/// Parses `value`, the text after the `=` of flag `arg`, as a T in
/// [lo, hi]. Empty text, trailing bytes, a sign on an unsigned type,
/// overflow, NaN, infinity and out-of-range values all print `arg` with its
/// range to stderr and exit 2. hi == the type's max reads "at least lo".
template <typename T>
T FlagNumber(const char* arg, const char* value, T lo,
             T hi = std::numeric_limits<T>::max()) {
  T out{};
  const char* end = value + std::strlen(value);
  const auto [ptr, ec] = std::from_chars(value, end, out);
  if (ec == std::errc() && ptr == end && out >= lo && out <= hi) return out;
  auto text = [](T v) {
    if constexpr (std::is_integral_v<T>) {
      return std::to_string(v);
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      return std::string(buf);
    }
  };
  const char* kind = std::is_integral_v<T> ? "an integer" : "a number";
  if (hi == std::numeric_limits<T>::max()) {
    std::fprintf(stderr, "invalid flag value (want %s >= %s): %s\n", kind,
                 text(lo).c_str(), arg);
  } else {
    std::fprintf(stderr, "invalid flag value (want %s in [%s, %s]): %s\n",
                 kind, text(lo).c_str(), text(hi).c_str(), arg);
  }
  std::exit(2);
}

}  // namespace alphaevolve::examples

#endif  // ALPHAEVOLVE_EXAMPLES_FLAG_NUMBER_H_
