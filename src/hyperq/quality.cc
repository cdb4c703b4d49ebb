#include "hyperq/quality.h"

#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/status.h"

/// \file quality.cc
/// Cold-path half of the data-quality gate: spec parsing, constraint
/// compilation (bound pre-scaling, charset masks, pattern pool, precomputed
/// CSV reason tails), the interpretive reference validator, and report
/// assembly. Nothing here runs per row — the fused per-field ops live as
/// inline helpers in quality.h and execute inside the conversion kernels.

namespace hyperq::core {

using common::Result;
using common::Status;

std::string_view QualityKindName(QualityKind kind) {
  switch (kind) {
    case QualityKind::kNone:
      return "none";
    case QualityKind::kNotNull:
      return "notnull";
    case QualityKind::kNullRate:
      return "nullrate";
    case QualityKind::kRange:
      return "range";
    case QualityKind::kLength:
      return "len";
    case QualityKind::kCharset:
      return "charset";
    case QualityKind::kPattern:
      return "pattern";
    case QualityKind::kOrderedPair:
      return "pair";
    case QualityKind::kConditionalRequired:
      return "require";
  }
  return "unknown";
}

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\n' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\n' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Splits on `sep` at bracket depth 0 so `range[0,10]` survives a ','-split
/// and `charset[;]` survives a ';'-split.
std::vector<std::string_view> SplitTop(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  int depth = 0;
  size_t start = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '[') {
      ++depth;
    } else if (s[i] == ']') {
      if (depth > 0) --depth;
    } else if (s[i] == sep && depth == 0) {
      parts.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  parts.push_back(s.substr(start));
  return parts;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

Result<double> ParseNumber(std::string_view text, std::string_view what) {
  const std::string buf(Trim(text));
  if (buf.empty()) return Status::ParseError("quality spec: empty " + std::string(what));
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("quality spec: bad " + std::string(what) + " '" + buf + "'");
  }
  return v;
}

/// Parses the `[...]` payload of a bracketed check; `text` is the full check
/// token, `prefix` e.g. "range". Returns the inside, un-trimmed.
Result<std::string_view> BracketBody(std::string_view text, std::string_view prefix) {
  std::string_view rest = text.substr(prefix.size());
  if (rest.empty() || rest.front() != '[' || rest.back() != ']') {
    return Status::ParseError("quality spec: expected " + std::string(prefix) +
                              "[...], got '" + std::string(text) + "'");
  }
  return rest.substr(1, rest.size() - 2);
}

Status ParseCheck(std::string_view token, const std::string& column,
                  std::vector<QualityConstraintSpec>* out) {
  QualityConstraintSpec c;
  c.column = column;
  if (EqualsIgnoreCase(token, "notnull")) {
    c.kind = QualityKind::kNotNull;
  } else if (token.size() > 10 && EqualsIgnoreCase(token.substr(0, 10), "nullrate<=")) {
    auto v = ParseNumber(token.substr(10), "nullrate ceiling");
    if (!v.ok()) return v.status();
    if (*v < 0 || *v > 1) {
      return Status::ParseError("quality spec: nullrate ceiling must be in [0,1], got '" +
                                std::string(token.substr(10)) + "'");
    }
    c.kind = QualityKind::kNullRate;
    c.has_max = true;
    c.max = *v;
  } else if (token.size() >= 5 && EqualsIgnoreCase(token.substr(0, 5), "range")) {
    auto body = BracketBody(token, "range");
    if (!body.ok()) return body.status();
    auto parts = SplitTop(*body, ',');
    if (parts.size() != 2) {
      return Status::ParseError("quality spec: range wants [lo,hi], got '" +
                                std::string(token) + "'");
    }
    c.kind = QualityKind::kRange;
    if (!Trim(parts[0]).empty()) {
      auto lo = ParseNumber(parts[0], "range lower bound");
      if (!lo.ok()) return lo.status();
      c.has_min = true;
      c.min = *lo;
    }
    if (!Trim(parts[1]).empty()) {
      auto hi = ParseNumber(parts[1], "range upper bound");
      if (!hi.ok()) return hi.status();
      c.has_max = true;
      c.max = *hi;
    }
    if (!c.has_min && !c.has_max) {
      return Status::ParseError("quality spec: range[,] constrains nothing");
    }
    if (c.has_min && c.has_max && c.min > c.max) {
      return Status::ParseError("quality spec: empty range on column " + column);
    }
  } else if (token.size() >= 3 && EqualsIgnoreCase(token.substr(0, 3), "len")) {
    auto body = BracketBody(token, "len");
    if (!body.ok()) return body.status();
    auto parts = SplitTop(*body, ',');
    if (parts.size() != 2) {
      return Status::ParseError("quality spec: len wants [lo,hi], got '" + std::string(token) +
                                "'");
    }
    c.kind = QualityKind::kLength;
    c.min = 0;
    c.max = 1e9;
    if (!Trim(parts[0]).empty()) {
      auto lo = ParseNumber(parts[0], "len lower bound");
      if (!lo.ok()) return lo.status();
      if (*lo < 0) return Status::ParseError("quality spec: negative len bound");
      c.has_min = true;
      c.min = *lo;
    }
    if (!Trim(parts[1]).empty()) {
      auto hi = ParseNumber(parts[1], "len upper bound");
      if (!hi.ok()) return hi.status();
      if (*hi < 0) return Status::ParseError("quality spec: negative len bound");
      c.has_max = true;
      c.max = *hi;
    }
    if (!c.has_min && !c.has_max) {
      return Status::ParseError("quality spec: len[,] constrains nothing");
    }
    if (c.min > c.max) return Status::ParseError("quality spec: empty len range on " + column);
  } else if (token.size() >= 7 && EqualsIgnoreCase(token.substr(0, 7), "charset")) {
    auto body = BracketBody(token, "charset");
    if (!body.ok()) return body.status();
    if (body->empty()) return Status::ParseError("quality spec: empty charset on " + column);
    c.kind = QualityKind::kCharset;
    c.text = std::string(*body);
  } else if (token.size() >= 7 && EqualsIgnoreCase(token.substr(0, 7), "pattern")) {
    auto body = BracketBody(token, "pattern");
    if (!body.ok()) return body.status();
    c.kind = QualityKind::kPattern;
    c.text = std::string(*body);
  } else {
    return Status::ParseError("quality spec: unknown check '" + std::string(token) +
                              "' on column " + column);
  }
  out->push_back(std::move(c));
  return Status::OK();
}

Status ParseRule(std::string_view rule, std::vector<QualityConstraintSpec>* out) {
  const size_t colon = rule.find(':');
  if (colon == std::string_view::npos) {
    return Status::ParseError("quality spec: rule missing ':' in '" + std::string(rule) + "'");
  }
  const std::string_view head = Trim(rule.substr(0, colon));
  const std::string_view body = Trim(rule.substr(colon + 1));
  if (head.empty()) return Status::ParseError("quality spec: rule with empty column name");
  if (EqualsIgnoreCase(head, "pair")) {
    const size_t lt = body.find('<');
    if (lt == std::string_view::npos) {
      return Status::ParseError("quality spec: pair wants A<B or A<=B, got '" +
                                std::string(body) + "'");
    }
    QualityConstraintSpec c;
    c.kind = QualityKind::kOrderedPair;
    c.strict = !(lt + 1 < body.size() && body[lt + 1] == '=');
    c.column = std::string(Trim(body.substr(0, lt)));
    c.column2 = std::string(Trim(body.substr(lt + (c.strict ? 1 : 2))));
    if (c.column.empty() || c.column2.empty()) {
      return Status::ParseError("quality spec: pair with empty column in '" +
                                std::string(body) + "'");
    }
    out->push_back(std::move(c));
    return Status::OK();
  }
  if (EqualsIgnoreCase(head, "require")) {
    // require:<required-column> if <present-column>
    const size_t if_pos = body.find(" if ");
    if (if_pos == std::string_view::npos) {
      return Status::ParseError("quality spec: require wants 'B if A', got '" +
                                std::string(body) + "'");
    }
    QualityConstraintSpec c;
    c.kind = QualityKind::kConditionalRequired;
    c.column = std::string(Trim(body.substr(0, if_pos)));
    c.column2 = std::string(Trim(body.substr(if_pos + 4)));
    if (c.column.empty() || c.column2.empty()) {
      return Status::ParseError("quality spec: require with empty column in '" +
                                std::string(body) + "'");
    }
    out->push_back(std::move(c));
    return Status::OK();
  }
  const std::string column(head);
  for (std::string_view token : SplitTop(body, ',')) {
    token = Trim(token);
    if (token.empty()) {
      return Status::ParseError("quality spec: empty check on column " + column);
    }
    HQ_RETURN_NOT_OK(ParseCheck(token, column, out));
  }
  return Status::OK();
}

}  // namespace

Result<QualitySpec> ParseQualitySpec(std::string_view spec) {
  QualitySpec out;
  std::string_view rest = Trim(spec);
  while (!rest.empty()) {
    const size_t open = rest.find('{');
    if (open == std::string_view::npos) {
      return Status::ParseError("quality spec: expected '{' after table name '" +
                                std::string(rest.substr(0, 32)) + "'");
    }
    TableQualitySpec table;
    table.table = std::string(Trim(rest.substr(0, open)));
    if (table.table.empty()) {
      return Status::ParseError("quality spec: table block with empty table name");
    }
    // Find the matching '}' — check bodies never contain braces.
    const size_t close = rest.find('}', open + 1);
    if (close == std::string_view::npos) {
      return Status::ParseError("quality spec: unterminated '{' for table " + table.table);
    }
    const std::string_view block = rest.substr(open + 1, close - open - 1);
    for (std::string_view rule : SplitTop(block, ';')) {
      rule = Trim(rule);
      if (rule.empty()) continue;
      HQ_RETURN_NOT_OK(ParseRule(rule, &table.constraints));
    }
    if (table.constraints.empty()) {
      return Status::ParseError("quality spec: table " + table.table + " has no constraints");
    }
    for (const TableQualitySpec& prev : out.tables) {
      if (EqualsIgnoreCase(prev.table, table.table)) {
        return Status::ParseError("quality spec: duplicate table block " + table.table);
      }
    }
    out.tables.push_back(std::move(table));
    rest = Trim(rest.substr(close + 1));
  }
  return out;
}

const TableQualitySpec* FindTableQuality(const QualitySpec& spec, std::string_view table) {
  for (const TableQualitySpec& t : spec.tables) {
    if (EqualsIgnoreCase(t.table, table)) return &t;
  }
  return nullptr;
}

namespace {

bool TypeIsOrderable(types::TypeId id) {
  return types::IsNumeric(id) || id == types::TypeId::kDate || id == types::TypeId::kTimestamp;
}

/// CSV-escapes one field with the exact convention of the staging encoder
/// (EncodeCsvRecord / conversion_plan.cc): quote when the field contains the
/// delimiter, a quote, or a newline; double embedded quotes.
void AppendCsvEscaped(std::string_view field, char delimiter, std::string* out) {
  bool needs_quote = field.empty();
  for (char ch : field) {
    if (ch == delimiter || ch == '"' || ch == '\n' || ch == '\r') {
      needs_quote = true;
      break;
    }
  }
  if (!needs_quote) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char ch : field) {
    if (ch == '"') out->push_back('"');
    out->push_back(ch);
  }
  out->push_back('"');
}

std::string FormatBound(const QualityConstraintSpec& c) {
  char buf[64];
  switch (c.kind) {
    case QualityKind::kNotNull:
      return "notnull";
    case QualityKind::kNullRate:
      std::snprintf(buf, sizeof(buf), "nullrate<=%g", c.max);
      return buf;
    case QualityKind::kRange: {
      std::string s = "range[";
      if (c.has_min) {
        std::snprintf(buf, sizeof(buf), "%g", c.min);
        s += buf;
      }
      s += ',';
      if (c.has_max) {
        std::snprintf(buf, sizeof(buf), "%g", c.max);
        s += buf;
      }
      s += ']';
      return s;
    }
    case QualityKind::kLength: {
      std::string s = "len[";
      if (c.has_min) {
        std::snprintf(buf, sizeof(buf), "%g", c.min);
        s += buf;
      }
      s += ',';
      if (c.has_max) {
        std::snprintf(buf, sizeof(buf), "%g", c.max);
        s += buf;
      }
      s += ']';
      return s;
    }
    case QualityKind::kCharset:
      return "charset[" + c.text + "]";
    case QualityKind::kPattern:
      return "pattern[" + c.text + "]";
    case QualityKind::kOrderedPair:
      return c.column + (c.strict ? "<" : "<=") + c.column2;
    case QualityKind::kConditionalRequired:
      return "required if " + c.column2;
    case QualityKind::kNone:
      break;
  }
  return "?";
}

Result<std::array<uint64_t, 4>> ParseCharsetMask(const std::string& set,
                                                 const std::string& column) {
  std::array<uint64_t, 4> mask = {0, 0, 0, 0};
  auto add = [&mask](uint8_t ch) { mask[ch >> 6] |= 1ull << (ch & 63); };
  for (size_t i = 0; i < set.size(); ++i) {
    // 'a-b' range when '-' sits between two members; leading/trailing '-'
    // is a literal dash.
    if (i + 2 < set.size() && set[i + 1] == '-') {
      const uint8_t lo = static_cast<uint8_t>(set[i]);
      const uint8_t hi = static_cast<uint8_t>(set[i + 2]);
      if (lo > hi) {
        return Status::ParseError("quality spec: inverted charset range '" +
                                  set.substr(i, 3) + "' on column " + column);
      }
      for (unsigned ch = lo; ch <= hi; ++ch) add(static_cast<uint8_t>(ch));
      i += 2;
    } else {
      add(static_cast<uint8_t>(set[i]));
    }
  }
  return mask;
}

}  // namespace

Result<CompiledQuality> CompiledQuality::Compile(const TableQualitySpec& spec,
                                                 const types::Schema& layout,
                                                 bool allow_missing_columns,
                                                 char csv_delimiter) {
  if (layout.num_fields() > kMaxQualityFields) {
    return Status::Invalid("quality gate supports at most " +
                           std::to_string(kMaxQualityFields) + " columns, layout has " +
                           std::to_string(layout.num_fields()));
  }
  if (spec.constraints.size() > kMaxQualityConstraints) {
    return Status::Invalid("quality spec for " + spec.table + " has " +
                           std::to_string(spec.constraints.size()) +
                           " constraints, limit is " + std::to_string(kMaxQualityConstraints));
  }
  CompiledQuality cq;
  cq.fields_.resize(layout.num_fields());
  for (QualityFieldChecks& f : cq.fields_) f.field_index = kNoChecks;

  // Pass 1: resolve columns, validate types, collect pattern pool size.
  size_t pool_bytes = 0;
  std::vector<int> resolved(spec.constraints.size(), -1);
  std::vector<int> resolved2(spec.constraints.size(), -1);
  for (size_t ci = 0; ci < spec.constraints.size(); ++ci) {
    const QualityConstraintSpec& c = spec.constraints[ci];
    const int fi = layout.FieldIndex(c.column);
    if (fi < 0 && !allow_missing_columns) {
      return Status::Invalid("quality spec for " + spec.table + ": unknown column " + c.column);
    }
    resolved[ci] = fi;
    if (c.kind == QualityKind::kOrderedPair || c.kind == QualityKind::kConditionalRequired) {
      const int fi2 = layout.FieldIndex(c.column2);
      if (fi2 < 0 && !allow_missing_columns) {
        return Status::Invalid("quality spec for " + spec.table + ": unknown column " +
                               c.column2);
      }
      resolved2[ci] = fi2;
    }
    if (fi >= 0) {
      const types::TypeDesc& t = layout.field(fi).type;
      if (c.kind == QualityKind::kRange && !TypeIsOrderable(t.id)) {
        return Status::Invalid("quality spec: range on non-numeric column " + c.column + " (" +
                               t.ToString() + ")");
      }
      if ((c.kind == QualityKind::kLength || c.kind == QualityKind::kCharset ||
           c.kind == QualityKind::kPattern) &&
          !types::IsString(t.id)) {
        return Status::Invalid("quality spec: " + std::string(QualityKindName(c.kind)) +
                               " on non-string column " + c.column + " (" + t.ToString() + ")");
      }
      if (c.kind == QualityKind::kOrderedPair && !TypeIsOrderable(t.id)) {
        return Status::Invalid("quality spec: pair on non-numeric column " + c.column);
      }
    }
    if (resolved2[ci] >= 0 && c.kind == QualityKind::kOrderedPair &&
        !TypeIsOrderable(layout.field(resolved2[ci]).type.id)) {
      return Status::Invalid("quality spec: pair on non-numeric column " + c.column2);
    }
    if (c.kind == QualityKind::kPattern) pool_bytes += c.text.size();
  }

  // Pass 2: pattern pool, per-field ops, cross checks, capture slots, infos.
  cq.pattern_pool_ = pool_bytes > 0 ? std::make_unique<char[]>(pool_bytes) : nullptr;
  size_t pool_off = 0;
  int capture_of[kMaxQualityFields];
  for (size_t i = 0; i < kMaxQualityFields; ++i) capture_of[i] = -1;
  auto capture_slot = [&cq, &capture_of](int fi) -> Result<int16_t> {
    if (capture_of[fi] >= 0) return static_cast<int16_t>(capture_of[fi]);
    if (cq.num_captures_ >= kMaxQualityCaptures) {
      return Status::Invalid("quality spec: more than " +
                             std::to_string(kMaxQualityCaptures) +
                             " distinct cross-check columns");
    }
    capture_of[fi] = cq.num_captures_++;
    QualityFieldChecks& f = cq.fields_[fi];
    f.field_index = static_cast<uint16_t>(fi);
    f.capture_slot = static_cast<int16_t>(capture_of[fi]);
    return static_cast<int16_t>(capture_of[fi]);
  };

  for (size_t ci = 0; ci < spec.constraints.size(); ++ci) {
    const QualityConstraintSpec& c = spec.constraints[ci];
    const uint16_t id = static_cast<uint16_t>(ci);
    const int fi = resolved[ci];

    QualityConstraintInfo info;
    info.kind = c.kind;
    info.column = c.column;
    info.bound = FormatBound(c);
    info.csv_suffix.push_back(csv_delimiter);
    info.csv_suffix += std::to_string(id);
    info.csv_suffix.push_back(csv_delimiter);
    info.csv_suffix += QualityKindName(c.kind);
    info.csv_suffix.push_back(csv_delimiter);
    AppendCsvEscaped(info.column, csv_delimiter, &info.csv_suffix);
    info.csv_suffix.push_back(csv_delimiter);
    AppendCsvEscaped(info.bound, csv_delimiter, &info.csv_suffix);
    cq.infos_.push_back(std::move(info));

    if (fi < 0) continue;  // dormant under schema drift
    QualityFieldChecks& f = cq.fields_[fi];

    switch (c.kind) {
      case QualityKind::kNotNull:
        f.field_index = static_cast<uint16_t>(fi);
        f.not_null = true;
        f.id_not_null = id;
        break;
      case QualityKind::kNullRate:
        f.field_index = static_cast<uint16_t>(fi);
        f.count_nulls = true;
        cq.null_rates_.push_back({static_cast<uint16_t>(fi), id, c.max});
        break;
      case QualityKind::kRange: {
        f.field_index = static_cast<uint16_t>(fi);
        f.has_range = true;
        f.id_range = id;
        // Kernels see DECIMAL as its unscaled integer: pre-scale the bounds.
        const types::TypeDesc& t = layout.field(fi).type;
        const double scale =
            t.id == types::TypeId::kDecimal ? std::pow(10.0, t.scale) : 1.0;
        f.min = c.has_min ? c.min * scale : -HUGE_VAL;
        f.max = c.has_max ? c.max * scale : HUGE_VAL;
        break;
      }
      case QualityKind::kLength:
        f.field_index = static_cast<uint16_t>(fi);
        f.has_length = true;
        f.id_length = id;
        f.min_len = c.has_min ? static_cast<uint32_t>(c.min) : 0;
        f.max_len = c.has_max ? static_cast<uint32_t>(c.max) : ~0u;
        break;
      case QualityKind::kCharset: {
        f.field_index = static_cast<uint16_t>(fi);
        f.has_charset = true;
        f.id_charset = id;
        auto mask = ParseCharsetMask(c.text, c.column);
        if (!mask.ok()) return mask.status();
        for (int w = 0; w < 4; ++w) f.charset[w] = (*mask)[w];
        break;
      }
      case QualityKind::kPattern:
        f.field_index = static_cast<uint16_t>(fi);
        f.has_pattern = true;
        f.id_pattern = id;
        std::memcpy(cq.pattern_pool_.get() + pool_off, c.text.data(), c.text.size());
        f.pattern = cq.pattern_pool_.get() + pool_off;
        f.pattern_len = static_cast<uint32_t>(c.text.size());
        pool_off += c.text.size();
        break;
      case QualityKind::kOrderedPair:
      case QualityKind::kConditionalRequired: {
        const int fi2 = resolved2[ci];
        if (fi2 < 0) break;  // dormant
        auto slot_a = capture_slot(fi);
        if (!slot_a.ok()) return slot_a.status();
        auto slot_b = capture_slot(fi2);
        if (!slot_b.ok()) return slot_b.status();
        QualityCrossCheck x;
        x.kind = c.kind;
        x.id = id;
        x.field = static_cast<uint16_t>(fi);
        x.slot_a = *slot_a;
        x.slot_b = *slot_b;
        x.strict = c.strict;
        cq.cross_.push_back(x);
        break;
      }
      case QualityKind::kNone:
        return Status::Internal("quality spec: unparsed constraint");
    }
  }
  return cq;
}

void CompiledQuality::ValidateValue(size_t field, const types::Value& value,
                                    QualityScratch* q) const {
  const QualityFieldChecks* c = field_checks(field);
  if (c == nullptr) return;
  if (value.is_null()) {
    QcNullField(*c, q);
    return;
  }
  if (value.is_int()) {
    QcNumeric(*c, false, static_cast<double>(value.int_value()), q);
  } else if (value.is_string()) {
    const std::string_view sv = value.string_value();
    QcString(*c, false, sv.data(), sv.size(), q);
  } else if (value.is_float()) {
    QcNumeric(*c, false, value.float_value(), q);
  } else if (value.is_decimal()) {
    QcNumeric(*c, false, static_cast<double>(value.decimal_value().unscaled()), q);
  } else if (value.is_date()) {
    QcNumeric(*c, false, static_cast<double>(value.date_days()), q);
  } else if (value.is_timestamp()) {
    QcNumeric(*c, false, static_cast<double>(value.timestamp_micros()), q);
  } else {
    QcPresence(*c, false, q);
  }
}

void FinishChunkQuality(const CompiledQuality& cq, const QualityScratch& q, ChunkQuality* out) {
  out->rows_checked = q.rows_checked;
  out->rows_quarantined = q.rows_quarantined;
  for (int k = 0; k < kNumQualityKinds; ++k) out->violations_by_kind[k] = q.violations_by_kind[k];
  out->violations_by_id.assign(q.violations_by_id, q.violations_by_id + cq.num_constraints());
  out->field_nulls.assign(q.field_nulls, q.field_nulls + cq.num_fields());
}

QualityJobReport BuildQualityJobReport(const CompiledQuality& cq,
                                       const std::vector<uint64_t>& violations_by_id,
                                       const std::vector<uint64_t>& field_nulls,
                                       uint64_t rows_checked, uint64_t rows_quarantined) {
  QualityJobReport report;
  report.enabled = true;
  report.rows_checked = rows_checked;
  report.rows_quarantined = rows_quarantined;
  report.violation_rate =
      rows_checked > 0 ? static_cast<double>(rows_quarantined) / rows_checked : 0.0;
  for (size_t id = 0; id < cq.num_constraints(); ++id) {
    const QualityConstraintInfo& info = cq.constraint(id);
    QualityJobReport::Constraint c;
    c.id = static_cast<uint16_t>(id);
    c.kind = info.kind;
    c.column = info.column;
    c.bound = info.bound;
    if (info.kind == QualityKind::kNullRate) {
      for (const CompiledQuality::NullRateCeiling& nr : cq.null_rate_ceilings()) {
        if (nr.id != id) continue;
        c.violations = nr.field < field_nulls.size() ? field_nulls[nr.field] : 0;
        c.observed = rows_checked > 0 ? static_cast<double>(c.violations) / rows_checked : 0.0;
        c.breached = c.observed > nr.ceiling;
        break;
      }
    } else {
      c.violations = id < violations_by_id.size() ? violations_by_id[id] : 0;
      report.violations_total += c.violations;
    }
    report.constraints.push_back(std::move(c));
  }
  return report;
}

}  // namespace hyperq::core
