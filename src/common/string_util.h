#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

/// \file string_util.h
/// Small string helpers shared by the SQL lexer, the ETL-script lexer, and
/// the vartext/CSV data codecs.

namespace hyperq::common {

/// ASCII upper/lower (locale-independent; SQL identifiers are ASCII).
std::string ToUpper(std::string_view s);
std::string ToLower(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Removes leading and trailing whitespace/space characters.
std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);
/// SQL TRIM semantics: strips only ' ' by default.
std::string TrimSpaces(std::string_view s);

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins with a delimiter.
std::string Join(const std::vector<std::string>& parts, std::string_view delim);

bool StartsWithIgnoreCase(std::string_view s, std::string_view prefix);

/// Parses all of `text` as a base-10 number with std::from_chars. False on
/// empty input, trailing characters or a value outside T's range: the
/// non-throwing replacement for std::stoi/stoll/stod on untrusted text.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// printf-style formatting into a std::string.
std::string Sprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace hyperq::common
