#include "cdw/table.h"

#include <gtest/gtest.h>

#include "table_rows.h"

namespace hyperq::cdw {
namespace {

using types::Field;
using types::Row;
using types::Schema;
using types::TypeDesc;
using types::Value;

Schema TwoColumnSchema() {
  Schema s;
  s.AddField(Field("K", TypeDesc::Int64(), false));
  s.AddField(Field("V", TypeDesc::Varchar(20)));
  return s;
}

/// Every cell, row by row, and the key counts of `keys`: what a rejected
/// write must leave as it was.
std::pair<std::vector<Row>, std::vector<size_t>> Snapshot(const Table& t,
                                                          const std::vector<Row>& keys) {
  std::vector<Row> rows;
  for (size_t r = 0; r < t.num_rows(); ++r) rows.push_back(t.GetRow(r));
  std::vector<size_t> counts;
  for (const Row& key : keys) counts.push_back(t.PrimaryKeyCount(key));
  return {rows, counts};
}

TEST(TableTest, AppendAndRead) {
  Table t("t", TwoColumnSchema());
  ASSERT_TRUE(AppendRows(&t, {{Value::Int(1), Value::String("a")}}).ok());
  ASSERT_TRUE(t.Commit({.appended = {{Value::Int(2)}, {Value::Null()}}}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.At(0, 0).int_value(), 1);
  EXPECT_TRUE(t.At(1, 1).is_null());
  EXPECT_EQ(t.GetRow(1)[0].int_value(), 2);
}

TEST(TableTest, ArityMismatchRejected) {
  Table t("t", TwoColumnSchema());
  EXPECT_FALSE(AppendRows(&t, {{Value::Int(1)}}).ok());
  EXPECT_FALSE(t.Commit({.appended = {{Value::Int(1)}}}).ok());
  EXPECT_FALSE(t.Commit({.appended = {{Value::Int(1)}, {}}}).ok());  // ragged columns
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, ReplaceRow) {
  Table t("t", TwoColumnSchema(), {"K"}, /*unique_primary=*/true);
  ASSERT_TRUE(AppendRows(&t, {{Value::Int(1), Value::String("a")},
                              {Value::Int(2), Value::String("b")}})
                  .ok());
  const std::vector<Row> keys = {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(9)}};

  // An update of the non-key column V rewrites that cell and no count.
  ASSERT_TRUE(t.Commit({.assigned = {1}, .assigned_values = {{Value::String("z")}},
                        .updated_rows = {0}})
                  .ok());
  EXPECT_EQ(t.At(0, 0).int_value(), 1);
  EXPECT_EQ(t.At(0, 1).string_value(), "z");
  EXPECT_EQ(Snapshot(t, keys).second, (std::vector<size_t>{1, 1, 0}));

  // An update of the key column K moves one count, from 1 to 9.
  ASSERT_TRUE(t.Commit({.assigned = {0}, .assigned_values = {{Value::Int(9)}},
                        .updated_rows = {0}})
                  .ok());
  EXPECT_EQ(t.At(0, 0).int_value(), 9);
  EXPECT_EQ(t.At(0, 1).string_value(), "z");
  EXPECT_EQ(Snapshot(t, keys).second, (std::vector<size_t>{0, 1, 1}));

  // A bad write changes nothing, not even its valid parts.
  const auto before = Snapshot(t, keys);
  const std::vector<Value> one_update = {Value::Int(1)};
  EXPECT_FALSE(t.Commit({.assigned = {0}, .assigned_values = {one_update},
                         .updated_rows = {5}})
                   .ok());  // row out of range
  EXPECT_FALSE(t.Commit({.assigned = {7}, .assigned_values = {one_update},
                         .updated_rows = {0}})
                   .ok());  // column out of range
  EXPECT_FALSE(t.Commit({.assigned = {0}, .assigned_values = {one_update, one_update},
                         .updated_rows = {0}})
                   .ok());  // arity: two value columns for one assigned column
  EXPECT_FALSE(t.Commit({.assigned = {0}, .assigned_values = {one_update},
                         .updated_rows = {0}, .removed_rows = {1, 4}})
                   .ok());  // removal out of range
  EXPECT_FALSE(t.Commit({.appended = {{Value::Int(3)}}, .assigned = {0},
                         .assigned_values = {one_update}, .updated_rows = {0}})
                   .ok());  // append arity
  EXPECT_EQ(Snapshot(t, keys), before);
}

TEST(TableTest, RemoveRows) {
  Table t("t", TwoColumnSchema());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(AppendRows(&t, {{Value::Int(i), Value::Null()}}).ok());
  ASSERT_TRUE(t.Commit({.removed_rows = {1, 3}}).ok());
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.At(0, 0).int_value(), 0);
  EXPECT_EQ(t.At(1, 0).int_value(), 2);
  EXPECT_EQ(t.At(2, 0).int_value(), 4);
}

TEST(TableTest, RemoveRowsValidation) {
  Table t("t", TwoColumnSchema());
  ASSERT_TRUE(AppendRows(&t, {{Value::Int(1), Value::Null()}}).ok());
  EXPECT_FALSE(t.Commit({.removed_rows = {0, 0}}).ok());  // not strictly ascending
  EXPECT_FALSE(t.Commit({.removed_rows = {5}}).ok());     // out of range
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_TRUE(t.Commit({}).ok());  // an empty write is fine
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, Truncate) {
  Table t("t", TwoColumnSchema());
  ASSERT_TRUE(AppendRows(&t, {{Value::Int(1), Value::Null()}}).ok());
  t.Truncate();
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, PrimaryKeyMetadata) {
  Table t("t", TwoColumnSchema(), {"K"}, /*unique_primary=*/true);
  EXPECT_TRUE(t.unique_primary());
  ASSERT_EQ(t.primary_key_indexes().size(), 1u);
  EXPECT_EQ(t.primary_key_indexes()[0], 0u);
}

TEST(TableTest, PrimaryKeyCountTracksMutations) {
  Table t("t", TwoColumnSchema(), {"K"}, /*unique_primary=*/true);
  EXPECT_EQ(t.PrimaryKeyCount({Value::Int(1)}), 0u);

  ASSERT_TRUE(AppendRows(&t, {{Value::Int(1), Value::String("a")},
                              {Value::Int(1), Value::String("b")},
                              {Value::Int(2), Value::String("c")}})
                  .ok());
  EXPECT_EQ(t.PrimaryKeyCount({Value::Int(1)}), 2u);  // multiset: table never rejects
  EXPECT_EQ(t.PrimaryKeyCount({Value::Int(2)}), 1u);

  // An update of V alone leaves every count.
  ASSERT_TRUE(t.Commit({.assigned = {1},
                        .assigned_values = {{Value::String("x"), Value::String("y")}},
                        .updated_rows = {0, 2}})
                  .ok());
  EXPECT_EQ(t.PrimaryKeyCount({Value::Int(1)}), 2u);
  EXPECT_EQ(t.PrimaryKeyCount({Value::Int(2)}), 1u);

  // An update of K moves row 0's key from 1 to 3. Row 0 is updated twice in
  // one write: the last update wins and the index follows it.
  ASSERT_TRUE(t.Commit({.assigned = {0},
                        .assigned_values = {{Value::Int(4), Value::Int(3)}},
                        .updated_rows = {0, 0}})
                  .ok());
  EXPECT_EQ(t.At(0, 0).int_value(), 3);
  EXPECT_EQ(t.PrimaryKeyCount({Value::Int(1)}), 1u);
  EXPECT_EQ(t.PrimaryKeyCount({Value::Int(3)}), 1u);
  EXPECT_EQ(t.PrimaryKeyCount({Value::Int(4)}), 0u);

  // A rejected write moves no count.
  EXPECT_FALSE(t.Commit({.removed_rows = {0, 3}}).ok());
  EXPECT_EQ(t.PrimaryKeyCount({Value::Int(3)}), 1u);

  // Remove rows 0 (key 3) and 2 (key 2).
  ASSERT_TRUE(t.Commit({.removed_rows = {0, 2}}).ok());
  EXPECT_EQ(t.PrimaryKeyCount({Value::Int(3)}), 0u);
  EXPECT_EQ(t.PrimaryKeyCount({Value::Int(2)}), 0u);
  EXPECT_EQ(t.PrimaryKeyCount({Value::Int(1)}), 1u);

  t.Truncate();
  EXPECT_EQ(t.PrimaryKeyCount({Value::Int(1)}), 0u);
}

TEST(TableTest, PrimaryKeyCountIsZeroWithoutUniqueKey) {
  // No declared unique primary key: the index is not maintained at all.
  Table t("t", TwoColumnSchema(), {"K"}, /*unique_primary=*/false);
  ASSERT_TRUE(AppendRows(&t, {{Value::Int(1), Value::Null()}}).ok());
  EXPECT_EQ(t.PrimaryKeyCount({Value::Int(1)}), 0u);
}

TEST(TableTest, MemoryBytesGrowsWithData) {
  Table t("t", TwoColumnSchema());
  size_t empty = t.MemoryBytes();
  ASSERT_TRUE(AppendRows(&t, {{Value::Int(1), Value::String(std::string(1000, 'x'))}}).ok());
  EXPECT_GT(t.MemoryBytes(), empty + 1000);
}

}  // namespace
}  // namespace hyperq::cdw
