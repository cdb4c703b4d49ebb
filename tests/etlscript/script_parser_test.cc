#include <gtest/gtest.h>

#include "etlscript/script_ast.h"

namespace hyperq::etlscript {
namespace {

const char* kExample21 = R"(
.logon host/user,pass;
.layout CustLayout;
.field CUST_ID varchar(5);
.field CUST_NAME varchar(50);
.field JOIN_DATE varchar(10);
.begin import tables PROD.CUSTOMER
errortables PROD.CUSTOMER_ET PROD.CUSTOMER_UV;
.dml label InsApply;
insert into PROD.CUSTOMER values (
    trim(:CUST_ID), trim(:CUST_NAME),
    cast(:JOIN_DATE as DATE format 'YYYY-MM-DD') );
.import infile input.txt
    format vartext '|' layout CustLayout
    apply InsApply;
.end load;
)";

TEST(ScriptParserTest, ParsesPaperExample21) {
  auto script = ParseScript(kExample21);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  const auto& cmds = script->commands;
  ASSERT_EQ(cmds.size(), 9u);
  EXPECT_EQ(cmds[0].kind, CommandKind::kLogon);
  EXPECT_EQ(cmds[0].host, "host");
  EXPECT_EQ(cmds[0].user, "user");
  EXPECT_EQ(cmds[0].password, "pass");
  EXPECT_EQ(cmds[1].kind, CommandKind::kLayout);
  EXPECT_EQ(cmds[1].name, "CustLayout");
  EXPECT_EQ(cmds[2].kind, CommandKind::kField);
  EXPECT_EQ(cmds[2].name, "CUST_ID");
  EXPECT_EQ(cmds[2].type_text, "varchar(5)");
  EXPECT_EQ(cmds[5].kind, CommandKind::kBeginImport);
  EXPECT_EQ(cmds[5].target_table, "PROD.CUSTOMER");
  EXPECT_EQ(cmds[5].error_table_et, "PROD.CUSTOMER_ET");
  EXPECT_EQ(cmds[5].error_table_uv, "PROD.CUSTOMER_UV");
  EXPECT_EQ(cmds[6].kind, CommandKind::kDml);
  EXPECT_EQ(cmds[6].name, "InsApply");
  EXPECT_NE(cmds[6].sql.find("insert into PROD.CUSTOMER"), std::string::npos);
  EXPECT_EQ(cmds[7].kind, CommandKind::kImport);
  EXPECT_EQ(cmds[7].file, "input.txt");
  EXPECT_EQ(cmds[7].delimiter, '|');
  EXPECT_EQ(cmds[7].layout_name, "CustLayout");
  EXPECT_EQ(cmds[7].apply_label, "InsApply");
  EXPECT_EQ(cmds[8].kind, CommandKind::kEndLoad);
}

TEST(ScriptParserTest, SessionsAndSet) {
  auto script = ParseScript(".sessions 8;\n.set max_errors 10;\n.set max_retries 5;")
                    .ValueOrDie();
  EXPECT_EQ(script.commands[0].kind, CommandKind::kSessions);
  EXPECT_EQ(script.commands[0].number, 8);
  EXPECT_EQ(script.commands[1].set_name, "max_errors");
  EXPECT_EQ(script.commands[1].number, 10);
  EXPECT_EQ(script.commands[2].set_name, "max_retries");
}

TEST(ScriptParserTest, SessionsRangeValidated) {
  EXPECT_FALSE(ParseScript(".sessions 0;").ok());
  EXPECT_FALSE(ParseScript(".sessions 100;").ok());
}

TEST(ScriptParserTest, NonNumericCountsAreParseErrors) {
  for (const char* script : {".sessions x;", ".sessions 99999999999999999999;",
                             ".set max_errors lots;",
                             ".begin export outfile f.txt sessions 4x;",
                             ".begin export outfile f.txt format vartext sessions x;"}) {
    auto r = ParseScript(script);
    ASSERT_FALSE(r.ok()) << script;
    EXPECT_TRUE(r.status().IsParseError()) << script << ": " << r.status().ToString();
  }
}

TEST(ScriptParserTest, BareSqlIsControlStatement) {
  auto script = ParseScript(".logon h/u,p;\ncreate table t (a integer);\nselect * from t;")
                    .ValueOrDie();
  ASSERT_EQ(script.commands.size(), 3u);
  EXPECT_EQ(script.commands[1].kind, CommandKind::kSql);
  EXPECT_EQ(script.commands[2].kind, CommandKind::kSql);
}

TEST(ScriptParserTest, ExportBlock) {
  auto script = ParseScript(
                    ".begin export outfile out.txt format vartext ',' sessions 3;\n"
                    "select a from t order by a;\n"
                    ".end export;")
                    .ValueOrDie();
  ASSERT_EQ(script.commands.size(), 3u);
  EXPECT_EQ(script.commands[0].kind, CommandKind::kBeginExport);
  EXPECT_EQ(script.commands[0].file, "out.txt");
  EXPECT_EQ(script.commands[0].delimiter, ',');
  EXPECT_EQ(script.commands[0].number, 3);
  EXPECT_EQ(script.commands[1].kind, CommandKind::kExportSelect);
  EXPECT_EQ(script.commands[2].kind, CommandKind::kEndExport);
}

TEST(ScriptParserTest, BinaryFormat) {
  auto script =
      ParseScript(".import infile f format binary layout L apply A;").ValueOrDie();
  EXPECT_EQ(script.commands[0].format, legacy::DataFormat::kBinary);
}

TEST(ScriptParserTest, CommentsStripped) {
  auto script = ParseScript(
                    "-- a comment\n"
                    "/* block\ncomment */ .logoff;")
                    .ValueOrDie();
  ASSERT_EQ(script.commands.size(), 1u);
  EXPECT_EQ(script.commands[0].kind, CommandKind::kLogoff);
}

TEST(ScriptParserTest, SemicolonInsideStringLiteralNotASeparator) {
  auto script = ParseScript(".logon h/u,p;\nselect ';' from t;").ValueOrDie();
  ASSERT_EQ(script.commands.size(), 2u);
  EXPECT_EQ(script.commands[1].sql, "select ';' from t");
}

TEST(ScriptParserTest, ErrorsCarryLineNumbers) {
  auto r = ParseScript("\n\n.bogus command;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos);
}

TEST(ScriptParserTest, MissingSemicolonFails) {
  EXPECT_FALSE(ParseScript(".logoff").ok());
}

TEST(ScriptParserTest, ImportRequiresAllClauses) {
  EXPECT_FALSE(ParseScript(".import infile f layout L;").ok());   // no apply
  EXPECT_FALSE(ParseScript(".import infile f apply A;").ok());    // no layout
  EXPECT_FALSE(ParseScript(".import layout L apply A;").ok());    // no infile
}

TEST(ScriptParserTest, BeginImportRequiresTarget) {
  EXPECT_FALSE(ParseScript(".begin import errortables A B;").ok());
}

TEST(ScriptParserTest, UnterminatedCommentFails) {
  EXPECT_FALSE(ParseScript("/* never closed").ok());
}

}  // namespace
}  // namespace hyperq::etlscript
