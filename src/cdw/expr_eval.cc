#include "cdw/expr_eval.h"

#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "types/date.h"

namespace hyperq::cdw {

using common::EqualsIgnoreCase;
using common::Result;
using common::Status;
using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using types::Decimal;
using types::TypeDesc;
using types::Value;

bool IsAggregateFunction(std::string_view name) {
  return EqualsIgnoreCase(name, "COUNT") || EqualsIgnoreCase(name, "SUM") ||
         EqualsIgnoreCase(name, "MIN") || EqualsIgnoreCase(name, "MAX") ||
         EqualsIgnoreCase(name, "AVG");
}

bool ContainsAggregate(const Expr& expr) {
  // Recurses through the composite kinds only; leaf kinds (literals,
  // column refs, ...) cannot contain an aggregate, hence default false.
  switch (expr.kind) {  // hqcheck:allow(enum-switch)
    case ExprKind::kFunction: {
      const auto& fn = static_cast<const sql::FunctionExpr&>(expr);
      if (IsAggregateFunction(fn.name)) return true;
      for (const auto& a : fn.args) {
        if (ContainsAggregate(*a)) return true;
      }
      return false;
    }
    case ExprKind::kUnary:
      return ContainsAggregate(*static_cast<const sql::UnaryExpr&>(expr).operand);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(expr);
      return ContainsAggregate(*b.left) || ContainsAggregate(*b.right);
    }
    case ExprKind::kCast:
      return ContainsAggregate(*static_cast<const sql::CastExpr&>(expr).operand);
    case ExprKind::kCase: {
      const auto& c = static_cast<const sql::CaseExpr&>(expr);
      if (c.operand && ContainsAggregate(*c.operand)) return true;
      for (const auto& [w, t] : c.whens) {
        if (ContainsAggregate(*w) || ContainsAggregate(*t)) return true;
      }
      return c.else_expr && ContainsAggregate(*c.else_expr);
    }
    case ExprKind::kIsNull:
      return ContainsAggregate(*static_cast<const sql::IsNullExpr&>(expr).operand);
    case ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      if (ContainsAggregate(*in.operand)) return true;
      for (const auto& e : in.list) {
        if (ContainsAggregate(*e)) return true;
      }
      return false;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const sql::BetweenExpr&>(expr);
      return ContainsAggregate(*bt.operand) || ContainsAggregate(*bt.low) ||
             ContainsAggregate(*bt.high);
    }
    default:
      return false;
  }
}

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative wildcard match: % = any run, _ = single char.
  size_t t = 0;
  size_t p = 0;
  size_t star_p = std::string_view::npos;
  size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

bool IsNumericValue(const Value& v) { return v.is_int() || v.is_float() || v.is_decimal(); }

/// -x; INT64_MIN has no negation and is an overflow, as in `+ - *`.
Result<int64_t> Negate(int64_t x) {
  int64_t out;
  if (__builtin_sub_overflow(int64_t{0}, x, &out)) {
    return Status::ConversionError("integer overflow");
  }
  return out;
}

Result<int64_t> Abs(int64_t x) { return x < 0 ? Negate(x) : Result<int64_t>(x); }

double AsDouble(const Value& v) {
  if (v.is_int()) return static_cast<double>(v.int_value());
  if (v.is_float()) return v.float_value();
  return v.decimal_value().ToDouble();
}

Result<Value> EvalComparison(BinaryOp op, const Value& left, const Value& right) {
  if (left.is_null() || right.is_null()) return Value::Null();
  if (op == BinaryOp::kLike) {
    if (!left.is_string() || !right.is_string()) {
      return Status::TypeError("LIKE requires string operands");
    }
    return Value::Boolean(LikeMatch(left.string_value(), right.string_value()));
  }
  HQ_ASSIGN_OR_RETURN(int cmp, CompareValues(left, right));
  // Comparison subset of BinaryOp; arithmetic never reaches this helper.
  switch (op) {  // hqcheck:allow(enum-switch)
    case BinaryOp::kEq:
      return Value::Boolean(cmp == 0);
    case BinaryOp::kNe:
      return Value::Boolean(cmp != 0);
    case BinaryOp::kLt:
      return Value::Boolean(cmp < 0);
    case BinaryOp::kLe:
      return Value::Boolean(cmp <= 0);
    case BinaryOp::kGt:
      return Value::Boolean(cmp > 0);
    case BinaryOp::kGe:
      return Value::Boolean(cmp >= 0);
    default:
      return Status::Internal("not a comparison op");
  }
}

Result<Value> EvalArithmetic(BinaryOp op, const Value& left, const Value& right) {
  if (left.is_null() || right.is_null()) return Value::Null();
  if (!IsNumericValue(left) || !IsNumericValue(right)) {
    // Strings that look numeric coerce (legacy implicit cast the CDW keeps).
    if (left.is_string() || right.is_string()) {
      HQ_ASSIGN_OR_RETURN(Value l2, left.is_string()
                                        ? types::CastValue(left, TypeDesc::Float64())
                                        : Result<Value>(left));
      HQ_ASSIGN_OR_RETURN(Value r2, right.is_string()
                                        ? types::CastValue(right, TypeDesc::Float64())
                                        : Result<Value>(right));
      return EvalArithmetic(op, l2, r2);
    }
    return Status::TypeError("arithmetic on non-numeric values");
  }
  // Decimal path when both sides are int/decimal and the op is exact.
  const bool exact = !left.is_float() && !right.is_float();
  if (exact && (left.is_decimal() || right.is_decimal()) &&
      (op == BinaryOp::kAdd || op == BinaryOp::kSub || op == BinaryOp::kMul)) {
    Decimal l = left.is_decimal() ? left.decimal_value() : Decimal::FromInt64(left.int_value(), 0);
    Decimal r =
        right.is_decimal() ? right.decimal_value() : Decimal::FromInt64(right.int_value(), 0);
    Result<Decimal> out = op == BinaryOp::kAdd   ? l.Add(r)
                          : op == BinaryOp::kSub ? l.Subtract(r)
                                                 : l.Multiply(r);
    HQ_RETURN_NOT_OK(out.status());
    return Value::Dec(out.ValueOrDie());
  }
  if (left.is_int() && right.is_int()) {
    int64_t a = left.int_value();
    int64_t b = right.int_value();
    int64_t out;
    // Integer-arithmetic subset; anything else falls to the float path or
    // the unsupported-operator error below.
    switch (op) {  // hqcheck:allow(enum-switch)
      case BinaryOp::kAdd:
        if (__builtin_add_overflow(a, b, &out)) return Status::ConversionError("integer overflow");
        return Value::Int(out);
      case BinaryOp::kSub:
        if (__builtin_sub_overflow(a, b, &out)) return Status::ConversionError("integer overflow");
        return Value::Int(out);
      case BinaryOp::kMul:
        if (__builtin_mul_overflow(a, b, &out)) return Status::ConversionError("integer overflow");
        return Value::Int(out);
      case BinaryOp::kDiv:
      case BinaryOp::kMod:
        if (b == 0) return Status::ConversionError("division by zero");
        // INT64_MIN / -1 does not fit, and the hardware traps on its % too.
        if (b == -1 && a == std::numeric_limits<int64_t>::min()) {
          return Status::ConversionError("integer overflow");
        }
        return Value::Int(op == BinaryOp::kDiv ? a / b : a % b);
      default:
        return Status::Internal("not an arithmetic op");
    }
  }
  double a = AsDouble(left);
  double b = AsDouble(right);
  // Float-arithmetic subset; comparisons were dispatched above and unknown
  // operators fall through to the unsupported-operator error.
  switch (op) {  // hqcheck:allow(enum-switch)
    case BinaryOp::kAdd:
      return Value::Float(a + b);
    case BinaryOp::kSub:
      return Value::Float(a - b);
    case BinaryOp::kMul:
      return Value::Float(a * b);
    case BinaryOp::kDiv:
      if (b == 0) return Status::ConversionError("division by zero");
      return Value::Float(a / b);
    case BinaryOp::kMod:
      if (b == 0) return Status::ConversionError("division by zero");
      return Value::Float(std::fmod(a, b));
    default:
      return Status::Internal("not an arithmetic op");
  }
}

/// A value's text: a string in place, anything else rendered into `buf`.
std::string_view TextOf(const Value& v, std::string* buf) {
  if (v.is_string()) return v.string_value();
  *buf = types::ValueToCdwText(v);
  return *buf;
}

std::string ToText(const Value& v) {
  std::string buf;
  return std::string(TextOf(v, &buf));
}

constexpr std::pair<std::string_view, ScalarFn> kScalarFns[] = {
    {"TRIM", ScalarFn::kTrim},           {"LTRIM", ScalarFn::kLtrim},
    {"RTRIM", ScalarFn::kRtrim},         {"UPPER", ScalarFn::kUpper},
    {"LOWER", ScalarFn::kLower},         {"LENGTH", ScalarFn::kLength},
    {"SUBSTR", ScalarFn::kSubstr},       {"POSITION", ScalarFn::kPosition},
    {"COALESCE", ScalarFn::kCoalesce},   {"NULLIF", ScalarFn::kNullif},
    {"ABS", ScalarFn::kAbs},             {"ROUND", ScalarFn::kRound},
    {"FLOOR", ScalarFn::kFloor},         {"CEIL", ScalarFn::kCeil},
    {"CEILING", ScalarFn::kCeil},        {"POWER", ScalarFn::kPower},
    {"MOD", ScalarFn::kMod},             {"TO_DATE", ScalarFn::kToDate},
    {"TO_TIMESTAMP", ScalarFn::kToTimestamp}, {"EXTRACT", ScalarFn::kExtract},
    {"ADD_MONTHS", ScalarFn::kAddMonths}, {"LAST_DAY", ScalarFn::kLastDay},
    {"TO_CHAR", ScalarFn::kToChar},     {"TRY_TO_DATE", ScalarFn::kTryToDate},
    {"TRY_TO_TIMESTAMP", ScalarFn::kTryToTimestamp},
};

}  // namespace

Result<int> CompareValues(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Status::Internal("null in CompareValues");
  if (a.is_string() && IsNumericValue(b)) {
    HQ_ASSIGN_OR_RETURN(Value parsed, types::CastValue(a, TypeDesc::Float64()));
    return CompareValues(parsed, b);
  }
  if (IsNumericValue(a) && b.is_string()) {
    HQ_ASSIGN_OR_RETURN(Value parsed, types::CastValue(b, TypeDesc::Float64()));
    return CompareValues(a, parsed);
  }
  if (a.is_string() && b.is_date()) {
    HQ_ASSIGN_OR_RETURN(Value parsed, types::CastValue(a, TypeDesc::Date()));
    return CompareValues(parsed, b);
  }
  if (a.is_date() && b.is_string()) {
    HQ_ASSIGN_OR_RETURN(Value parsed, types::CastValue(b, TypeDesc::Date()));
    return CompareValues(a, parsed);
  }
  return a.Compare(b);
}

ScalarFn LookupScalarFn(std::string_view name) {
  for (const auto& [spelling, fn] : kScalarFns) {
    if (EqualsIgnoreCase(name, spelling)) return fn;
  }
  return ScalarFn::kUnknown;
}

bool IsLegacyFunction(std::string_view name) {
  return EqualsIgnoreCase(name, "ZEROIFNULL") || EqualsIgnoreCase(name, "NULLIFZERO") ||
         EqualsIgnoreCase(name, "INDEX") || EqualsIgnoreCase(name, "CHARACTERS");
}

Status AggregateInScalarContext(const std::string& name) {
  return Status::Invalid("aggregate function " + name + " is not allowed in this context");
}

Status LegacyFunctionCall(const std::string& name) {
  return Status::NotImplemented("function " + name +
                                " is a legacy-EDW construct the CDW does not support "
                                "(requires Hyper-Q transpilation)");
}

Status LegacyPowerOperator() {
  return Status::NotImplemented(
      "'**' is a legacy-EDW operator the CDW does not support (requires Hyper-Q "
      "transpilation)");
}

Status LegacyFormatCast() {
  return Status::NotImplemented(
      "CAST ... FORMAT is a legacy-EDW construct the CDW does not support (requires "
      "Hyper-Q transpilation)");
}

Status PlaceholderInCdw() {
  return Status::Invalid(
      ":placeholders cannot execute in the CDW; Hyper-Q must bind them to staging columns");
}

Result<Value> ToDate(const Value& text, const types::DateFormat& format) {
  if (text.is_null()) return Value::Null();
  std::string buf;
  HQ_ASSIGN_OR_RETURN(types::DateDays days, types::ParseDate(TextOf(text, &buf), format));
  return Value::Date(days);
}

Result<Value> NullOnConversionError(Result<Value> result) {
  if (!result.ok() && result.status().IsConversionError()) return Value::Null();
  return result;
}

Result<Value> ApplyScalarFn(ScalarFn fn, const std::string& name,
                            std::span<const Value* const> args) {
  auto arg = [&](size_t i) -> const Value& { return *args[i]; };
  auto need_args = [&](size_t lo, size_t hi) -> Status {
    if (args.size() < lo || args.size() > hi) {
      return Status::Invalid(name + ": wrong argument count");
    }
    return Status::OK();
  };
  std::string buf;
  switch (fn) {
    case ScalarFn::kTrim:
    case ScalarFn::kLtrim:
    case ScalarFn::kRtrim: {
      HQ_RETURN_NOT_OK(need_args(1, 1));
      if (arg(0).is_null()) return Value::Null();
      std::string_view s = TextOf(arg(0), &buf);
      size_t b = 0;
      size_t e = s.size();
      if (fn != ScalarFn::kRtrim) {
        while (b < e && s[b] == ' ') ++b;
      }
      if (fn != ScalarFn::kLtrim) {
        while (e > b && s[e - 1] == ' ') --e;
      }
      return Value::String(std::string(s.substr(b, e - b)));
    }
    case ScalarFn::kUpper:
      HQ_RETURN_NOT_OK(need_args(1, 1));
      if (arg(0).is_null()) return Value::Null();
      return Value::String(common::ToUpper(TextOf(arg(0), &buf)));
    case ScalarFn::kLower:
      HQ_RETURN_NOT_OK(need_args(1, 1));
      if (arg(0).is_null()) return Value::Null();
      return Value::String(common::ToLower(TextOf(arg(0), &buf)));
    case ScalarFn::kLength:
      HQ_RETURN_NOT_OK(need_args(1, 1));
      if (arg(0).is_null()) return Value::Null();
      return Value::Int(static_cast<int64_t>(TextOf(arg(0), &buf).size()));
    case ScalarFn::kSubstr: {
      HQ_RETURN_NOT_OK(need_args(2, 3));
      if (arg(0).is_null() || arg(1).is_null()) return Value::Null();
      std::string_view s = TextOf(arg(0), &buf);
      HQ_ASSIGN_OR_RETURN(Value start_v, types::CastValue(arg(1), TypeDesc::Int64()));
      int64_t start = start_v.int_value();
      int64_t len = static_cast<int64_t>(s.size());
      if (args.size() == 3) {
        if (arg(2).is_null()) return Value::Null();
        HQ_ASSIGN_OR_RETURN(Value len_v, types::CastValue(arg(2), TypeDesc::Int64()));
        len = len_v.int_value();
      }
      if (len < 0) return Status::Invalid("SUBSTR: negative length");
      // 1-based; positions before 1 shrink the window (SQL semantics). The
      // 1 - start characters before position 1 are counted unsigned, which
      // holds them exactly even for start = INT64_MIN.
      if (start < 1) {
        const uint64_t before = uint64_t{1} - static_cast<uint64_t>(start);
        len = static_cast<uint64_t>(len) <= before ? 0 : len - static_cast<int64_t>(before);
        start = 1;
      }
      const int64_t begin = start - 1;
      if (begin >= static_cast<int64_t>(s.size()) || len <= 0) return Value::String("");
      len = std::min<int64_t>(len, static_cast<int64_t>(s.size()) - begin);
      return Value::String(std::string(s.substr(static_cast<size_t>(begin),
                                                static_cast<size_t>(len))));
    }
    case ScalarFn::kPosition: {
      HQ_RETURN_NOT_OK(need_args(2, 2));
      if (arg(0).is_null() || arg(1).is_null()) return Value::Null();
      std::string hay_buf;
      std::string_view needle = TextOf(arg(0), &buf);
      std::string_view hay = TextOf(arg(1), &hay_buf);
      size_t pos = hay.find(needle);
      return Value::Int(pos == std::string_view::npos ? 0 : static_cast<int64_t>(pos) + 1);
    }
    case ScalarFn::kCoalesce:
      if (args.empty()) return Status::Invalid("COALESCE needs arguments");
      for (const Value* a : args) {
        if (!a->is_null()) return *a;
      }
      return Value::Null();
    case ScalarFn::kNullif: {
      HQ_RETURN_NOT_OK(need_args(2, 2));
      if (arg(0).is_null()) return Value::Null();
      if (arg(1).is_null()) return arg(0);
      HQ_ASSIGN_OR_RETURN(int cmp, CompareValues(arg(0), arg(1)));
      return cmp == 0 ? Value::Null() : arg(0);
    }
    case ScalarFn::kAbs:
      HQ_RETURN_NOT_OK(need_args(1, 1));
      if (arg(0).is_null()) return Value::Null();
      if (arg(0).is_int()) {
        HQ_ASSIGN_OR_RETURN(int64_t x, Abs(arg(0).int_value()));
        return Value::Int(x);
      }
      if (arg(0).is_decimal()) {
        const Decimal& d = arg(0).decimal_value();
        HQ_ASSIGN_OR_RETURN(int64_t unscaled, Abs(d.unscaled()));
        return Value::Dec(Decimal(unscaled, d.scale()));
      }
      if (arg(0).is_float()) return Value::Float(std::fabs(arg(0).float_value()));
      return Status::TypeError("ABS on non-numeric value");
    case ScalarFn::kRound: {
      HQ_RETURN_NOT_OK(need_args(1, 2));
      if (arg(0).is_null()) return Value::Null();
      int64_t digits = 0;
      if (args.size() == 2) {
        if (arg(1).is_null()) return Value::Null();
        HQ_ASSIGN_OR_RETURN(Value d, types::CastValue(arg(1), TypeDesc::Int64()));
        digits = d.int_value();
      }
      if (arg(0).is_decimal()) {
        HQ_ASSIGN_OR_RETURN(Decimal r, arg(0).decimal_value().Rescale(
                                           static_cast<int32_t>(std::max<int64_t>(0, digits))));
        return Value::Dec(r);
      }
      double scale = std::pow(10.0, static_cast<double>(digits));
      HQ_ASSIGN_OR_RETURN(Value x, types::CastValue(arg(0), TypeDesc::Float64()));
      return Value::Float(std::round(x.float_value() * scale) / scale);
    }
    case ScalarFn::kFloor:
    case ScalarFn::kCeil: {
      HQ_RETURN_NOT_OK(need_args(1, 1));
      if (arg(0).is_null()) return Value::Null();
      HQ_ASSIGN_OR_RETURN(Value x, types::CastValue(arg(0), TypeDesc::Float64()));
      double v = x.float_value();
      return Value::Float(fn == ScalarFn::kFloor ? std::floor(v) : std::ceil(v));
    }
    case ScalarFn::kPower: {
      HQ_RETURN_NOT_OK(need_args(2, 2));
      if (arg(0).is_null() || arg(1).is_null()) return Value::Null();
      HQ_ASSIGN_OR_RETURN(Value a, types::CastValue(arg(0), TypeDesc::Float64()));
      HQ_ASSIGN_OR_RETURN(Value b, types::CastValue(arg(1), TypeDesc::Float64()));
      return Value::Float(std::pow(a.float_value(), b.float_value()));
    }
    case ScalarFn::kMod:
      HQ_RETURN_NOT_OK(need_args(2, 2));
      return EvalArithmetic(BinaryOp::kMod, arg(0), arg(1));
    case ScalarFn::kToDate:
      HQ_RETURN_NOT_OK(need_args(2, 2));
      if (arg(0).is_null()) return Value::Null();
      if (!arg(1).is_string()) return Status::TypeError("TO_DATE format must be a string");
      return ToDate(arg(0), types::DateFormat(arg(1).string_value()));
    case ScalarFn::kTryToDate:
      return NullOnConversionError(ApplyScalarFn(ScalarFn::kToDate, name, args));
    case ScalarFn::kTryToTimestamp:
      return NullOnConversionError(ApplyScalarFn(ScalarFn::kToTimestamp, name, args));
    case ScalarFn::kToTimestamp: {
      HQ_RETURN_NOT_OK(need_args(1, 2));
      if (arg(0).is_null()) return Value::Null();
      HQ_ASSIGN_OR_RETURN(types::TimestampMicros ts,
                          types::ParseTimestampIso(TextOf(arg(0), &buf)));
      return Value::Timestamp(ts);
    }
    case ScalarFn::kExtract: {
      HQ_RETURN_NOT_OK(need_args(2, 2));
      if (!arg(0).is_string()) return Status::TypeError("EXTRACT unit must be a string");
      if (arg(1).is_null()) return Value::Null();
      HQ_ASSIGN_OR_RETURN(Value d, types::CastValue(arg(1), TypeDesc::Date()));
      types::YearMonthDay ymd = types::YmdFromDays(d.date_days());
      const std::string& unit = arg(0).string_value();
      if (EqualsIgnoreCase(unit, "YEAR")) return Value::Int(ymd.year);
      if (EqualsIgnoreCase(unit, "MONTH")) return Value::Int(ymd.month);
      if (EqualsIgnoreCase(unit, "DAY")) return Value::Int(ymd.day);
      return Status::Invalid("unsupported EXTRACT unit: " + unit);
    }
    case ScalarFn::kAddMonths: {
      HQ_RETURN_NOT_OK(need_args(2, 2));
      if (arg(0).is_null() || arg(1).is_null()) return Value::Null();
      HQ_ASSIGN_OR_RETURN(Value d, types::CastValue(arg(0), TypeDesc::Date()));
      HQ_ASSIGN_OR_RETURN(Value n, types::CastValue(arg(1), TypeDesc::Int64()));
      types::YearMonthDay ymd = types::YmdFromDays(d.date_days());
      int64_t months;
      if (__builtin_add_overflow(int64_t{ymd.year} * 12 + ymd.month - 1, n.int_value(),
                                 &months) ||
          months / 12 > std::numeric_limits<int32_t>::max() ||
          months / 12 < std::numeric_limits<int32_t>::min()) {
        return Status::ConversionError("integer overflow");
      }
      int32_t year = static_cast<int32_t>(months / 12);
      int32_t month = static_cast<int32_t>(months % 12) + 1;
      // Clamp to the target month's last day (Oracle/Teradata semantics).
      int32_t day = ymd.day;
      while (day > 28 && !types::IsValidDate(year, month, day)) --day;
      HQ_ASSIGN_OR_RETURN(types::DateDays out, types::DaysFromYmd(year, month, day));
      return Value::Date(out);
    }
    case ScalarFn::kLastDay: {
      HQ_RETURN_NOT_OK(need_args(1, 1));
      if (arg(0).is_null()) return Value::Null();
      HQ_ASSIGN_OR_RETURN(Value d, types::CastValue(arg(0), TypeDesc::Date()));
      types::YearMonthDay ymd = types::YmdFromDays(d.date_days());
      int32_t day = 31;
      while (!types::IsValidDate(ymd.year, ymd.month, day)) --day;
      HQ_ASSIGN_OR_RETURN(types::DateDays out, types::DaysFromYmd(ymd.year, ymd.month, day));
      return Value::Date(out);
    }
    case ScalarFn::kToChar:
      HQ_RETURN_NOT_OK(need_args(1, 2));
      if (arg(0).is_null()) return Value::Null();
      if (args.size() == 1) return Value::String(ToText(arg(0)));
      if (!arg(1).is_string()) return Status::TypeError("TO_CHAR format must be a string");
      if (arg(0).is_date()) {
        HQ_ASSIGN_OR_RETURN(std::string out,
                            types::FormatDate(arg(0).date_days(), arg(1).string_value()));
        return Value::String(out);
      }
      return Value::String(ToText(arg(0)));
    case ScalarFn::kUnknown:
      break;
  }
  return Status::NotImplemented("unknown function: " + name);
}

Result<Value> ApplyUnary(sql::UnaryOp op, const Value& v) {
  if (v.is_null()) return Value::Null();
  if (op == sql::UnaryOp::kNot) {
    if (!v.is_boolean()) return Status::TypeError("NOT on non-boolean");
    return Value::Boolean(!v.boolean());
  }
  // Negation.
  if (v.is_int()) {
    HQ_ASSIGN_OR_RETURN(int64_t x, Negate(v.int_value()));
    return Value::Int(x);
  }
  if (v.is_float()) return Value::Float(-v.float_value());
  if (v.is_decimal()) {
    HQ_ASSIGN_OR_RETURN(int64_t unscaled, Negate(v.decimal_value().unscaled()));
    return Value::Dec(Decimal(unscaled, v.decimal_value().scale()));
  }
  return Status::TypeError("negation of non-numeric value");
}

Result<Value> ApplyLogical(BinaryOp op, const Value& l, const Value& r) {
  // Three-valued logic.
  auto truth = [](const Value& v) -> Result<int> {
    if (v.is_null()) return -1;
    if (!v.is_boolean()) return Status::TypeError("boolean operand expected");
    return v.boolean() ? 1 : 0;
  };
  HQ_ASSIGN_OR_RETURN(int lt, truth(l));
  HQ_ASSIGN_OR_RETURN(int rt, truth(r));
  if (op == BinaryOp::kAnd) {
    if (lt == 0 || rt == 0) return Value::Boolean(false);
    if (lt == -1 || rt == -1) return Value::Null();
    return Value::Boolean(true);
  }
  if (lt == 1 || rt == 1) return Value::Boolean(true);
  if (lt == -1 || rt == -1) return Value::Null();
  return Value::Boolean(false);
}

Result<Value> ApplyBinary(BinaryOp op, const Value& left, const Value& right) {
  // Routing switch: arithmetic vs comparison groups; the grouped helpers own
  // full coverage of their subsets.
  switch (op) {  // hqcheck:allow(enum-switch)
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return EvalArithmetic(op, left, right);
    case BinaryOp::kConcat: {
      if (left.is_null() || right.is_null()) return Value::Null();
      return Value::String(ToText(left) + ToText(right));
    }
    default:
      return EvalComparison(op, left, right);
  }
}

}  // namespace hyperq::cdw
