#include "types/type.h"

#include <cctype>

#include "common/string_util.h"

namespace hyperq::types {

using common::EqualsIgnoreCase;
using common::Result;
using common::Status;

std::string_view TypeIdName(TypeId id) {
  switch (id) {
    case TypeId::kBoolean:
      return "BOOLEAN";
    case TypeId::kInt8:
      return "BYTEINT";
    case TypeId::kInt16:
      return "SMALLINT";
    case TypeId::kInt32:
      return "INTEGER";
    case TypeId::kInt64:
      return "BIGINT";
    case TypeId::kFloat64:
      return "FLOAT";
    case TypeId::kDecimal:
      return "DECIMAL";
    case TypeId::kChar:
      return "CHAR";
    case TypeId::kVarchar:
      return "VARCHAR";
    case TypeId::kDate:
      return "DATE";
    case TypeId::kTimestamp:
      return "TIMESTAMP";
  }
  return "UNKNOWN";
}

bool IsNumeric(TypeId id) {
  switch (id) {
    case TypeId::kInt8:
    case TypeId::kInt16:
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kFloat64:
    case TypeId::kDecimal:
      return true;
    case TypeId::kBoolean:
    case TypeId::kChar:
    case TypeId::kVarchar:
    case TypeId::kDate:
    case TypeId::kTimestamp:
      return false;
  }
  return false;
}

bool IsString(TypeId id) { return id == TypeId::kChar || id == TypeId::kVarchar; }

std::string TypeDesc::ToString() const {
  std::string out(TypeIdName(id));
  if (id == TypeId::kChar || id == TypeId::kVarchar) {
    // Separate appends: a `"(" + std::to_string(...)` chain trips GCC 12's
    // -Wrestrict once inlined at -O3.
    out += '(';
    out += std::to_string(length);
    out += ')';
    if (charset == CharSet::kUnicode) out += " CHARACTER SET UNICODE";
  } else if (id == TypeId::kDecimal) {
    out += '(';
    out += std::to_string(precision);
    out += ',';
    out += std::to_string(scale);
    out += ')';
  }
  return out;
}

int32_t TypeDesc::FixedWireWidth() const {
  switch (id) {
    case TypeId::kBoolean:
    case TypeId::kInt8:
      return 1;
    case TypeId::kInt16:
      return 2;
    case TypeId::kInt32:
    case TypeId::kDate:
      return 4;
    case TypeId::kInt64:
    case TypeId::kFloat64:
    case TypeId::kDecimal:
    case TypeId::kTimestamp:
      return 8;
    case TypeId::kChar:
      return length;  // blank padded to declared length
    case TypeId::kVarchar:
      return 0;  // 2-byte length prefix + data
  }
  return 0;
}

namespace {

// Parses "(n)" or "(p,s)" starting at `pos`; advances pos past ')'.
Status ParseParens(std::string_view text, size_t* pos, int32_t* a, int32_t* b, bool* has_b) {
  *has_b = false;
  while (*pos < text.size() && std::isspace(static_cast<unsigned char>(text[*pos]))) ++*pos;
  if (*pos >= text.size() || text[*pos] != '(') {
    return Status::ParseError("expected '(' in type: " + std::string(text));
  }
  ++*pos;
  auto read_int = [&](int32_t* out) -> Status {
    while (*pos < text.size() && std::isspace(static_cast<unsigned char>(text[*pos]))) ++*pos;
    size_t start = *pos;
    while (*pos < text.size() && std::isdigit(static_cast<unsigned char>(text[*pos]))) ++*pos;
    if (*pos == start) return Status::ParseError("expected integer in type: " + std::string(text));
    if (!common::ParseNumber(text.substr(start, *pos - start), out)) {
      return Status::ParseError("integer out of range in type: " + std::string(text));
    }
    while (*pos < text.size() && std::isspace(static_cast<unsigned char>(text[*pos]))) ++*pos;
    return Status::OK();
  };
  HQ_RETURN_NOT_OK(read_int(a));
  if (*pos < text.size() && text[*pos] == ',') {
    ++*pos;
    HQ_RETURN_NOT_OK(read_int(b));
    *has_b = true;
  }
  if (*pos >= text.size() || text[*pos] != ')') {
    return Status::ParseError("expected ')' in type: " + std::string(text));
  }
  ++*pos;
  return Status::OK();
}

}  // namespace

Result<TypeDesc> ParseTypeName(std::string_view text) {
  std::string_view t = common::TrimView(text);
  size_t word_end = 0;
  while (word_end < t.size() &&
         (std::isalnum(static_cast<unsigned char>(t[word_end])) || t[word_end] == '_')) {
    ++word_end;
  }
  std::string_view name = t.substr(0, word_end);
  size_t pos = word_end;

  auto rest_mentions_unicode = [&] {
    return common::ToUpper(t).find("UNICODE") != std::string::npos;
  };

  if (EqualsIgnoreCase(name, "BOOLEAN")) return TypeDesc::Boolean();
  if (EqualsIgnoreCase(name, "BYTEINT")) return TypeDesc::Int8();
  if (EqualsIgnoreCase(name, "SMALLINT")) return TypeDesc::Int16();
  if (EqualsIgnoreCase(name, "INTEGER") || EqualsIgnoreCase(name, "INT")) {
    return TypeDesc::Int32();
  }
  if (EqualsIgnoreCase(name, "BIGINT")) return TypeDesc::Int64();
  if (EqualsIgnoreCase(name, "FLOAT") || EqualsIgnoreCase(name, "DOUBLE") ||
      EqualsIgnoreCase(name, "REAL")) {
    return TypeDesc::Float64();
  }
  if (EqualsIgnoreCase(name, "DATE")) return TypeDesc::Date();
  if (EqualsIgnoreCase(name, "TIMESTAMP")) return TypeDesc::Timestamp();
  if (EqualsIgnoreCase(name, "DECIMAL") || EqualsIgnoreCase(name, "NUMERIC") ||
      EqualsIgnoreCase(name, "DEC")) {
    int32_t p = 18;
    int32_t s = 0;
    bool has_b = false;
    if (pos < t.size()) {
      size_t probe = pos;
      while (probe < t.size() && std::isspace(static_cast<unsigned char>(t[probe]))) ++probe;
      if (probe < t.size() && t[probe] == '(') {
        HQ_RETURN_NOT_OK(ParseParens(t, &pos, &p, &s, &has_b));
        if (!has_b) s = 0;
      }
    }
    if (p < 1 || p > 18 || s < 0 || s > p) {
      return Status::ParseError("unsupported DECIMAL precision/scale: " + std::string(text));
    }
    return TypeDesc::Decimal(p, s);
  }
  if (EqualsIgnoreCase(name, "CHAR") || EqualsIgnoreCase(name, "CHARACTER")) {
    int32_t n = 1;
    int32_t unused = 0;
    bool has_b = false;
    size_t probe = pos;
    while (probe < t.size() && std::isspace(static_cast<unsigned char>(t[probe]))) ++probe;
    if (probe < t.size() && t[probe] == '(') {
      HQ_RETURN_NOT_OK(ParseParens(t, &pos, &n, &unused, &has_b));
    }
    return TypeDesc::Char(n, rest_mentions_unicode() ? CharSet::kUnicode : CharSet::kLatin);
  }
  if (EqualsIgnoreCase(name, "VARCHAR")) {
    int32_t n = 0;
    int32_t unused = 0;
    bool has_b = false;
    HQ_RETURN_NOT_OK(ParseParens(t, &pos, &n, &unused, &has_b));
    return TypeDesc::Varchar(n, rest_mentions_unicode() ? CharSet::kUnicode : CharSet::kLatin);
  }
  return Status::ParseError("unknown type name: " + std::string(text));
}

}  // namespace hyperq::types
