#include "types/date.h"

#include <cctype>

#include "common/string_util.h"

namespace hyperq::types {

using common::Result;
using common::Status;

namespace {
constexpr int kDaysPerMonth[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

bool IsLeap(int32_t y) { return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0; }

// Howard Hinnant's days_from_civil.
int64_t DaysFromCivil(int32_t y, int32_t m, int32_t d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const int64_t yoe = y - era * 400;
  const int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}
}  // namespace

bool IsValidDate(int32_t y, int32_t m, int32_t d) {
  if (y < 1 || y > 9999 || m < 1 || m > 12 || d < 1) return false;
  int max_d = kDaysPerMonth[m - 1];
  if (m == 2 && IsLeap(y)) max_d = 29;
  return d <= max_d;
}

Result<DateDays> DaysFromYmd(int32_t y, int32_t m, int32_t d) {
  if (!IsValidDate(y, m, d)) {
    return Status::ConversionError(common::Sprintf("invalid date %04d-%02d-%02d", y, m, d));
  }
  return static_cast<DateDays>(DaysFromCivil(y, m, d));
}

YearMonthDay YmdFromDays(DateDays days) {
  // Howard Hinnant's civil_from_days.
  int64_t z = static_cast<int64_t>(days) + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const int64_t doe = z - era * 146097;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = yoe + era * 400;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  const int64_t d = doy - (153 * mp + 2) / 5 + 1;
  const int64_t m = mp + (mp < 10 ? 3 : -9);
  return YearMonthDay{static_cast<int32_t>(y + (m <= 2)), static_cast<int32_t>(m),
                      static_cast<int32_t>(d)};
}

namespace {

// Reads exactly n digits from text at pos; returns -1 on failure.
int ReadDigits(std::string_view text, size_t* pos, int n) {
  if (*pos + n > text.size()) return -1;
  int v = 0;
  for (int i = 0; i < n; ++i) {
    char c = text[*pos + i];
    if (!std::isdigit(static_cast<unsigned char>(c))) return -1;
    v = v * 10 + (c - '0');
  }
  *pos += n;
  return v;
}

int ExpandTwoDigitYear(int yy) { return yy < 30 ? 2000 + yy : 1900 + yy; }

}  // namespace

Result<DateDays> ParseDate(std::string_view text, std::string_view format) {
  return ParseDate(text, DateFormat(format));
}

DateFormat::DateFormat(std::string_view format) : pattern_(format) {
  std::string fmt = common::ToUpper(format);
  size_t fi = 0;
  while (fi < fmt.size()) {
    if (fmt.compare(fi, 4, "YYYY") == 0) {
      steps_.push_back({Token::kYear4, 0});
      fi += 4;
    } else if (fmt.compare(fi, 2, "YY") == 0) {
      steps_.push_back({Token::kYear2, 0});
      fi += 2;
    } else if (fmt.compare(fi, 2, "MM") == 0) {
      steps_.push_back({Token::kMonth, 0});
      fi += 2;
    } else if (fmt.compare(fi, 2, "DD") == 0) {
      steps_.push_back({Token::kDay, 0});
      fi += 2;
    } else {
      steps_.push_back({Token::kLiteral, fmt[fi++]});
    }
  }
}

Result<DateDays> ParseDate(std::string_view text, const DateFormat& format) {
  using Token = DateFormat::Token;
  std::string_view t = common::TrimView(text);
  size_t ti = 0;
  int y = -1;
  int m = -1;
  int d = -1;
  bool ok = true;
  for (const DateFormat::Step& step : format.steps_) {
    switch (step.token) {
      case Token::kYear4:
        y = ReadDigits(t, &ti, 4);
        ok = y >= 0;
        break;
      case Token::kYear2: {
        int yy = ReadDigits(t, &ti, 2);
        ok = yy >= 0;
        if (ok) y = ExpandTwoDigitYear(yy);
        break;
      }
      case Token::kMonth:
        m = ReadDigits(t, &ti, 2);
        ok = m >= 0;
        break;
      case Token::kDay:
        d = ReadDigits(t, &ti, 2);
        ok = d >= 0;
        break;
      case Token::kLiteral:
        // Literal separator must match exactly.
        ok = ti < t.size() && t[ti] == step.literal;
        ++ti;
        break;
    }
    if (!ok) break;
  }
  if (!ok || ti != t.size() || y < 0 || m < 0 || d < 0) {
    return Status::ConversionError("DATE conversion failed for '" + std::string(text) +
                                   "' with format '" + format.pattern_ + "'");
  }
  return DaysFromYmd(y, m, d);
}

Result<std::string> FormatDate(DateDays days, std::string_view format) {
  std::string fmt = common::ToUpper(format);
  YearMonthDay ymd = YmdFromDays(days);
  std::string out;
  size_t fi = 0;
  while (fi < fmt.size()) {
    if (fmt.compare(fi, 4, "YYYY") == 0) {
      out += common::Sprintf("%04d", ymd.year);
      fi += 4;
    } else if (fmt.compare(fi, 2, "YY") == 0) {
      out += common::Sprintf("%02d", ymd.year % 100);
      fi += 2;
    } else if (fmt.compare(fi, 2, "MM") == 0) {
      out += common::Sprintf("%02d", ymd.month);
      fi += 2;
    } else if (fmt.compare(fi, 2, "DD") == 0) {
      out += common::Sprintf("%02d", ymd.day);
      fi += 2;
    } else {
      out += fmt[fi];
      ++fi;
    }
  }
  return out;
}

std::string FormatDateLegacyDefault(DateDays days) {
  return FormatDate(days, "YY/MM/DD").ValueOrDie();
}

std::string FormatDateIso(DateDays days) { return FormatDate(days, "YYYY-MM-DD").ValueOrDie(); }

Result<TimestampMicros> ParseTimestampIso(std::string_view text) {
  std::string_view t = common::TrimView(text);
  size_t pos = 0;
  int y = ReadDigits(t, &pos, 4);
  if (y < 0 || pos >= t.size() || t[pos] != '-') {
    return Status::ConversionError("TIMESTAMP conversion failed for '" + std::string(text) + "'");
  }
  ++pos;
  int m = ReadDigits(t, &pos, 2);
  if (m < 0 || pos >= t.size() || t[pos] != '-') {
    return Status::ConversionError("TIMESTAMP conversion failed for '" + std::string(text) + "'");
  }
  ++pos;
  int d = ReadDigits(t, &pos, 2);
  if (d < 0) {
    return Status::ConversionError("TIMESTAMP conversion failed for '" + std::string(text) + "'");
  }
  int hh = 0;
  int mi = 0;
  int ss = 0;
  int64_t frac = 0;
  if (pos < t.size()) {
    if (t[pos] != ' ' && t[pos] != 'T') {
      return Status::ConversionError("TIMESTAMP conversion failed for '" + std::string(text) +
                                     "'");
    }
    ++pos;
    hh = ReadDigits(t, &pos, 2);
    if (hh < 0 || pos >= t.size() || t[pos] != ':') {
      return Status::ConversionError("TIMESTAMP conversion failed for '" + std::string(text) +
                                     "'");
    }
    ++pos;
    mi = ReadDigits(t, &pos, 2);
    if (mi < 0 || pos >= t.size() || t[pos] != ':') {
      return Status::ConversionError("TIMESTAMP conversion failed for '" + std::string(text) +
                                     "'");
    }
    ++pos;
    ss = ReadDigits(t, &pos, 2);
    if (ss < 0) {
      return Status::ConversionError("TIMESTAMP conversion failed for '" + std::string(text) +
                                     "'");
    }
    if (pos < t.size() && t[pos] == '.') {
      ++pos;
      int digits = 0;
      while (pos < t.size() && std::isdigit(static_cast<unsigned char>(t[pos])) && digits < 6) {
        frac = frac * 10 + (t[pos] - '0');
        ++pos;
        ++digits;
      }
      while (digits < 6) {
        frac *= 10;
        ++digits;
      }
    }
  }
  if (pos != t.size() || hh > 23 || mi > 59 || ss > 59) {
    return Status::ConversionError("TIMESTAMP conversion failed for '" + std::string(text) + "'");
  }
  HQ_ASSIGN_OR_RETURN(DateDays days, DaysFromYmd(y, m, d));
  int64_t micros = static_cast<int64_t>(days) * 86400000000LL +
                   (static_cast<int64_t>(hh) * 3600 + mi * 60 + ss) * 1000000LL + frac;
  return micros;
}

std::string FormatTimestampIso(TimestampMicros micros) {
  int64_t days = micros / 86400000000LL;
  int64_t rem = micros % 86400000000LL;
  if (rem < 0) {
    rem += 86400000000LL;
    --days;
  }
  YearMonthDay ymd = YmdFromDays(static_cast<DateDays>(days));
  int64_t secs = rem / 1000000LL;
  int64_t frac = rem % 1000000LL;
  return common::Sprintf("%04d-%02d-%02d %02d:%02d:%02d.%06d", ymd.year, ymd.month, ymd.day,
                         static_cast<int>(secs / 3600), static_cast<int>((secs / 60) % 60),
                         static_cast<int>(secs % 60), static_cast<int>(frac));
}

}  // namespace hyperq::types
