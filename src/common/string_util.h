// Small string helpers shared across etlopt modules.

#ifndef ETLOPT_COMMON_STRING_UTIL_H_
#define ETLOPT_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace etlopt {

/// FNV-1a offset basis, the conventional `seed` for Fnv1a64.
inline constexpr uint64_t kFnv1aBasis = 14695981039346656037ull;

/// Incremental FNV-1a over `bytes`, continuing from `seed` — the shared
/// checksum/fingerprint primitive of the persistence formats (plan cache
/// files, recovery checkpoints) and request-context hashing.
uint64_t Fnv1a64(std::string_view bytes, uint64_t seed = kFnv1aBasis);

/// Fnv1a64 over the eight bytes of `v`, least significant first.
inline uint64_t Fnv1a64U64(uint64_t v, uint64_t seed) {
  for (int i = 0; i < 8; ++i) {
    seed = (seed ^ static_cast<unsigned char>(v >> (8 * i))) *
           1099511628211ull;
  }
  return seed;
}

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits on a single-character separator; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Formats a double compactly and exactly: integral values lose the
/// fraction ("3" not "3.000000"), others use the fewest significant
/// decimals (starting at 6) that strtod back to the same double — so
/// serialized values round-trip bit for bit.
std::string DoubleToString(double v);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace etlopt

#endif  // ETLOPT_COMMON_STRING_UTIL_H_
