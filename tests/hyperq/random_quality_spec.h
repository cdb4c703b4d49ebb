#pragma once

#include <iterator>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/random.h"
#include "hyperq/data_converter.h"
#include "hyperq/quality.h"
#include "types/schema.h"

/// Seeded quality-spec generator shared by the conversion and staging
/// differentials: a random constraint set over a layout, drawing every kind
/// the fused gate compiles into the kernels (notnull, range, len, charset,
/// pattern, pair, require). Range bounds are two random values of the
/// column's own type, so a useful share of rows trips them.

namespace hyperq::core::testing_quality {

inline bool IsOrderable(types::TypeId id) {
  switch (id) {
    case types::TypeId::kInt8:
    case types::TypeId::kInt16:
    case types::TypeId::kInt32:
    case types::TypeId::kInt64:
    case types::TypeId::kFloat64:
    case types::TypeId::kDecimal:
    case types::TypeId::kDate:
    case types::TypeId::kTimestamp:
      return true;
    case types::TypeId::kBoolean:
    case types::TypeId::kChar:
    case types::TypeId::kVarchar:
      return false;
  }
  return false;
}

/// A value of an orderable type in spec units (DECIMAL in natural units:
/// the compiler pre-scales range bounds to the kernels' unscaled space).
inline double SpecUnits(const types::Value& v, const types::TypeDesc& type) {
  if (v.is_int()) return static_cast<double>(v.int_value());
  if (v.is_float()) return v.float_value();
  if (v.is_date()) return static_cast<double>(v.date_days());
  if (v.is_timestamp()) return static_cast<double>(v.timestamp_micros());
  double unscaled = static_cast<double>(v.decimal_value().unscaled());
  for (int32_t s = 0; s < type.scale; ++s) unscaled /= 10.0;
  return unscaled;
}

/// `random_value` draws a (possibly NULL) value of a type, the same
/// generator the caller feeds its chunks from.
template <typename RandomValueFn>
TableQualitySpec RandomQualitySpec(const types::Schema& layout, common::Random* rng,
                                   RandomValueFn random_value) {
  static constexpr const char* kCharsets[] = {"a-z", "ab x", "A-Za-z0-9", "xy0 ,\"", "0-9-"};
  static constexpr const char* kPatterns[] = {"*", "a*", "*b", "?*", "x*y*", "*\"*", "??"};
  TableQualitySpec spec;
  spec.table = "T";
  const size_t nconstraints = 1 + rng->NextBounded(6);
  for (size_t k = 0; k < nconstraints; ++k) {
    const types::Field& field = layout.field(rng->NextBounded(layout.num_fields()));
    const types::Field& other = layout.field(rng->NextBounded(layout.num_fields()));
    const bool orderable = IsOrderable(field.type.id);
    const bool text = types::IsString(field.type.id);
    QualityConstraintSpec c;
    c.column = field.name;
    switch (rng->NextBounded(7)) {
      case 0:
        c.kind = QualityKind::kNotNull;
        break;
      case 1: {
        if (!orderable) {
          c.kind = QualityKind::kNotNull;
          break;
        }
        c.kind = QualityKind::kRange;
        types::Value a = random_value(field.type, rng);
        types::Value b = random_value(field.type, rng);
        c.has_min = !a.is_null();
        c.has_max = !b.is_null();
        if (c.has_min) c.min = SpecUnits(a, field.type);
        if (c.has_max) c.max = SpecUnits(b, field.type);
        if (c.has_min && c.has_max && c.min > c.max) std::swap(c.min, c.max);
        break;
      }
      case 2:
        if (!text) {
          c.kind = QualityKind::kConditionalRequired;
          c.column2 = other.name;
          break;
        }
        c.kind = QualityKind::kLength;
        c.has_min = rng->NextBool();
        c.has_max = rng->NextBool();
        c.min = static_cast<double>(rng->NextBounded(4));
        c.max = c.min + static_cast<double>(rng->NextBounded(12));
        break;
      case 3:
        if (!text) {
          c.kind = QualityKind::kNotNull;
          break;
        }
        c.kind = QualityKind::kCharset;
        c.text = kCharsets[rng->NextBounded(std::size(kCharsets))];
        break;
      case 4:
        if (!text) {
          c.kind = QualityKind::kNotNull;
          break;
        }
        c.kind = QualityKind::kPattern;
        c.text = kPatterns[rng->NextBounded(std::size(kPatterns))];
        break;
      case 5:
        if (!orderable || !IsOrderable(other.type.id)) {
          c.kind = QualityKind::kConditionalRequired;
          c.column2 = other.name;
          break;
        }
        c.kind = QualityKind::kOrderedPair;
        c.column2 = other.name;
        c.strict = rng->NextBool();
        break;
      default:
        c.kind = QualityKind::kConditionalRequired;
        c.column2 = other.name;
        break;
    }
    spec.constraints.push_back(std::move(c));
  }
  return spec;
}

/// The gate's observable outcome on one chunk must match field for field:
/// the quarantine stream bytes and every ChunkQuality counter.
inline void ExpectSameQuality(const ConvertedChunk& a, const ConvertedChunk& b) {
  EXPECT_EQ(std::string(a.qrtn.AsSlice().ToStringView()),
            std::string(b.qrtn.AsSlice().ToStringView()));
  EXPECT_EQ(a.quality.rows_checked, b.quality.rows_checked);
  EXPECT_EQ(a.quality.rows_quarantined, b.quality.rows_quarantined);
  for (int k = 0; k < kNumQualityKinds; ++k) {
    EXPECT_EQ(a.quality.violations_by_kind[k], b.quality.violations_by_kind[k]) << "kind " << k;
  }
  EXPECT_EQ(a.quality.violations_by_id, b.quality.violations_by_id);
  EXPECT_EQ(a.quality.field_nulls, b.quality.field_nulls);
}

}  // namespace hyperq::core::testing_quality
