#include "types/type.h"

#include <gtest/gtest.h>

namespace hyperq::types {
namespace {

TEST(TypeTest, Factories) {
  EXPECT_EQ(TypeDesc::Int32().id, TypeId::kInt32);
  EXPECT_EQ(TypeDesc::Varchar(50).length, 50);
  EXPECT_EQ(TypeDesc::Decimal(18, 2).precision, 18);
  EXPECT_EQ(TypeDesc::Decimal(18, 2).scale, 2);
  EXPECT_EQ(TypeDesc::Char(5).length, 5);
}

TEST(TypeTest, ToStringRendersParameters) {
  EXPECT_EQ(TypeDesc::Varchar(50).ToString(), "VARCHAR(50)");
  EXPECT_EQ(TypeDesc::Decimal(10, 2).ToString(), "DECIMAL(10,2)");
  EXPECT_EQ(TypeDesc::Date().ToString(), "DATE");
  EXPECT_EQ(TypeDesc::Int8().ToString(), "BYTEINT");
  EXPECT_EQ(TypeDesc::Varchar(8, CharSet::kUnicode).ToString(),
            "VARCHAR(8) CHARACTER SET UNICODE");
}

TEST(TypeTest, NumericAndStringClassification) {
  EXPECT_TRUE(IsNumeric(TypeId::kInt8));
  EXPECT_TRUE(IsNumeric(TypeId::kDecimal));
  EXPECT_FALSE(IsNumeric(TypeId::kVarchar));
  EXPECT_FALSE(IsNumeric(TypeId::kDate));
  EXPECT_TRUE(IsString(TypeId::kChar));
  EXPECT_TRUE(IsString(TypeId::kVarchar));
  EXPECT_FALSE(IsString(TypeId::kInt32));
}

TEST(TypeTest, FixedWireWidths) {
  EXPECT_EQ(TypeDesc::Int8().FixedWireWidth(), 1);
  EXPECT_EQ(TypeDesc::Int16().FixedWireWidth(), 2);
  EXPECT_EQ(TypeDesc::Int32().FixedWireWidth(), 4);
  EXPECT_EQ(TypeDesc::Int64().FixedWireWidth(), 8);
  EXPECT_EQ(TypeDesc::Date().FixedWireWidth(), 4);
  EXPECT_EQ(TypeDesc::Char(20).FixedWireWidth(), 20);
  EXPECT_EQ(TypeDesc::Varchar(20).FixedWireWidth(), 0);
}

struct ParseCase {
  const char* text;
  TypeDesc expected;
};

// Without a printer, gtest renders the case as raw bytes, which include the
// address of `text`; under ASLR that makes the discovered test names change
// from run to run.
void PrintTo(const ParseCase& c, std::ostream* os) { *os << c.text; }

class ParseTypeNameTest : public ::testing::TestWithParam<ParseCase> {};

TEST_P(ParseTypeNameTest, Parses) {
  auto result = ParseTypeName(GetParam().text);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, GetParam().expected) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, ParseTypeNameTest,
    ::testing::Values(
        ParseCase{"varchar(5)", TypeDesc::Varchar(5)},
        ParseCase{"VARCHAR(255)", TypeDesc::Varchar(255)},
        ParseCase{"char(10)", TypeDesc::Char(10)},
        ParseCase{"CHARACTER(3)", TypeDesc::Char(3)},
        ParseCase{"CHAR", TypeDesc::Char(1)},
        ParseCase{"integer", TypeDesc::Int32()},
        ParseCase{"INT", TypeDesc::Int32()},
        ParseCase{"byteint", TypeDesc::Int8()},
        ParseCase{"SMALLINT", TypeDesc::Int16()},
        ParseCase{"BIGINT", TypeDesc::Int64()},
        ParseCase{"float", TypeDesc::Float64()},
        ParseCase{"DOUBLE", TypeDesc::Float64()},
        ParseCase{"date", TypeDesc::Date()},
        ParseCase{"TIMESTAMP", TypeDesc::Timestamp()},
        ParseCase{"decimal(18,2)", TypeDesc::Decimal(18, 2)},
        ParseCase{"DEC(9,4)", TypeDesc::Decimal(9, 4)},
        ParseCase{"NUMERIC(5)", TypeDesc::Decimal(5, 0)},
        ParseCase{"DECIMAL", TypeDesc::Decimal(18, 0)},
        ParseCase{"boolean", TypeDesc::Boolean()},
        ParseCase{"varchar(8) character set unicode",
                  TypeDesc::Varchar(8, CharSet::kUnicode)}));

TEST(ParseTypeNameErrorTest, RejectsGarbage) {
  EXPECT_FALSE(ParseTypeName("notatype").ok());
  EXPECT_FALSE(ParseTypeName("varchar").ok());  // needs length
  EXPECT_FALSE(ParseTypeName("varchar(").ok());
  EXPECT_FALSE(ParseTypeName("decimal(40,2)").ok());  // >18 digits
  EXPECT_FALSE(ParseTypeName("decimal(5,9)").ok());   // scale > precision
  EXPECT_FALSE(ParseTypeName("").ok());
}

TEST(ParseTypeNameErrorTest, OversizedLengthIsParseError) {
  auto r = ParseTypeName("varchar(99999999999)");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
  EXPECT_FALSE(ParseTypeName("decimal(10,99999999999)").ok());
}

}  // namespace
}  // namespace hyperq::types
