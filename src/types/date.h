#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

/// \file date.h
/// Proleptic-Gregorian date arithmetic plus the legacy EDW FORMAT-clause
/// date patterns. The legacy dialect writes
///   CAST(:JOIN_DATE AS DATE FORMAT 'YYYY-MM-DD')
/// and displays dates as YY/MM/DD by default (cf. Figure 5 of the paper);
/// the CDW dialect uses TO_DATE(expr, 'YYYY-MM-DD').

namespace hyperq::types {

/// Days since the Unix epoch 1970-01-01.
using DateDays = int32_t;
/// Microseconds since the Unix epoch.
using TimestampMicros = int64_t;

/// Calendar components of a date.
struct YearMonthDay {
  int32_t year;
  int32_t month;  // 1..12
  int32_t day;    // 1..31
};

/// True if `y/m/d` is a valid proleptic Gregorian calendar day.
bool IsValidDate(int32_t y, int32_t m, int32_t d);

/// Converts calendar components to epoch days (validated).
common::Result<DateDays> DaysFromYmd(int32_t y, int32_t m, int32_t d);

/// Converts epoch days back to calendar components.
YearMonthDay YmdFromDays(DateDays days);

/// Parses text against a legacy FORMAT pattern. Supported tokens: YYYY, YY,
/// MM, DD, and literal separator characters ('-', '/', '.', ' ', ...). A
/// pattern without separators (e.g. YYYYMMDD) is positional. Two-digit years
/// are interpreted as 1930..2029 (legacy EDW century window).
common::Result<DateDays> ParseDate(std::string_view text, std::string_view format);

/// A FORMAT pattern split into its tokens once, for callers that parse many
/// texts against one pattern. ParseDate(text, DateFormat(f)) returns exactly
/// what ParseDate(text, f) returns, error messages included.
class DateFormat {
 public:
  explicit DateFormat(std::string_view format);

 private:
  friend common::Result<DateDays> ParseDate(std::string_view text, const DateFormat& format);
  enum class Token : uint8_t { kYear4, kYear2, kMonth, kDay, kLiteral };
  struct Step {
    Token token;
    char literal;  ///< the upper-cased separator a kLiteral step must match
  };
  std::string pattern_;  ///< as written, for error messages
  std::vector<Step> steps_;
};

common::Result<DateDays> ParseDate(std::string_view text, const DateFormat& format);

/// Formats epoch days according to a legacy FORMAT pattern.
common::Result<std::string> FormatDate(DateDays days, std::string_view format);

/// Legacy default display format (YY/MM/DD).
std::string FormatDateLegacyDefault(DateDays days);
/// ISO format YYYY-MM-DD used by the CDW dialect.
std::string FormatDateIso(DateDays days);

/// Parses 'YYYY-MM-DD HH:MI:SS[.FFFFFF]' into epoch microseconds.
common::Result<TimestampMicros> ParseTimestampIso(std::string_view text);
/// Formats epoch micros as 'YYYY-MM-DD HH:MI:SS.FFFFFF'.
std::string FormatTimestampIso(TimestampMicros micros);

}  // namespace hyperq::types
