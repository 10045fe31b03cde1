// Whole-value numeric parsing for the example binaries and the benches. A
// `--key=value` flag's value, a positional argument and an AE_BENCH_*
// environment variable must each be one number with nothing before or after
// it, inside its range; anything else prints the value with its name and
// exits 2, as an unknown daemon flag does. A typo must never become a
// different run: "abc" read as 0 turns a candidate budget into a wall-clock
// one and a wall-clock budget into none at all, and "-1" read as an unsigned
// turns a bounded queue into an unbounded one.
#ifndef ALPHAEVOLVE_EXAMPLES_FLAG_NUMBER_H_
#define ALPHAEVOLVE_EXAMPLES_FLAG_NUMBER_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <system_error>
#include <type_traits>

namespace alphaevolve::examples {

/// Largest integer a JSON number (a double) carries exactly: the top of
/// every --max-candidates range (submit_search's range too).
inline constexpr int64_t kMaxFlagCandidates = int64_t{1} << 53;

/// Prints that `arg`, a `name=value` text, is not `want`, and exits 2.
[[noreturn]] inline void RefuseValue(const std::string& arg,
                                     const std::string& want) {
  std::fprintf(stderr, "invalid value (want %s): %s\n", want.c_str(),
               arg.c_str());
  std::exit(2);
}

/// `value` as one whole T in [lo, hi]; nullopt for empty text, trailing
/// bytes, a sign on an unsigned type, overflow, NaN, infinity and
/// out-of-range values.
template <typename T>
std::optional<T> WholeNumber(const char* value, T lo,
                             T hi = std::numeric_limits<T>::max()) {
  T out{};
  const char* end = value + std::strlen(value);
  const auto [ptr, ec] = std::from_chars(value, end, out);
  if (ec == std::errc() && ptr == end && out >= lo && out <= hi) return out;
  return std::nullopt;
}

/// Parses `value`, the text after the `=` of flag `arg`, as a WholeNumber
/// in [lo, hi]; anything else prints `arg` with its range to stderr and
/// exits 2. hi == the type's max reads "at least lo".
template <typename T>
T FlagNumber(const char* arg, const char* value, T lo,
             T hi = std::numeric_limits<T>::max()) {
  if (const std::optional<T> out = WholeNumber(value, lo, hi)) return *out;
  auto text = [](T v) {
    if constexpr (std::is_integral_v<T>) {
      return std::to_string(v);
    } else {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      return std::string(buf);
    }
  };
  const std::string kind = std::is_integral_v<T> ? "an integer" : "a number";
  RefuseValue(arg, hi == std::numeric_limits<T>::max()
                       ? kind + " >= " + text(lo)
                       : kind + " in [" + text(lo) + ", " + text(hi) + "]");
}

/// Positional argument `index`, called `name` in messages, parsed like a
/// flag value; `fallback` when the command line ends before it.
template <typename T>
T ArgNumber(int argc, char** argv, int index, const char* name, T fallback,
            T lo, T hi = std::numeric_limits<T>::max()) {
  if (index >= argc) return fallback;
  const std::string arg = std::string(name) + "=" + argv[index];
  return FlagNumber(arg.c_str(), argv[index], lo, hi);
}

/// Environment variable `name` parsed like a flag value; `fallback` when it
/// is unset.
template <typename T>
T EnvNumber(const char* name, T fallback, T lo,
            T hi = std::numeric_limits<T>::max()) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const std::string arg = std::string(name) + "=" + value;
  return FlagNumber(arg.c_str(), value, lo, hi);
}

}  // namespace alphaevolve::examples

#endif  // ALPHAEVOLVE_EXAMPLES_FLAG_NUMBER_H_
