#include "sql/parser.h"

#include <cctype>

#include "common/string_util.h"
#include "sql/token.h"
#include "types/date.h"

namespace hyperq::sql {

using common::EqualsIgnoreCase;
using common::Result;
using common::Status;
using types::TypeDesc;
using types::Value;

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<StatementPtr> ParseOneStatement() {
    HQ_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatementInternal());
    Accept(";");
    if (!AtEof()) return Error("unexpected trailing input");
    return stmt;
  }

  Result<std::vector<StatementPtr>> ParseAll() {
    std::vector<StatementPtr> stmts;
    while (!AtEof()) {
      if (Accept(";")) continue;
      HQ_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatementInternal());
      stmts.push_back(std::move(stmt));
      if (!AtEof() && !Accept(";")) return Error("expected ';' between statements");
    }
    return stmts;
  }

  Result<ExprPtr> ParseSingleExpression() {
    HQ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (!AtEof()) return Error("unexpected trailing input after expression");
    return e;
  }

 private:
  // --- token helpers --------------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool AtEof() const { return Peek().kind == TokenKind::kEof; }

  bool Accept(std::string_view symbol) {
    if (Peek().IsSymbol(symbol)) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptKeyword(std::string_view kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Expect(std::string_view symbol) {
    if (!Accept(symbol)) return Error("expected '" + std::string(symbol) + "'");
    return Status::OK();
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!AcceptKeyword(kw)) return Error("expected " + std::string(kw));
    return Status::OK();
  }

  Status Error(std::string msg) const {
    const Token& t = Peek();
    return Status::ParseError(msg + " at line " + std::to_string(t.line) + " near '" + t.text +
                              "'");
  }

  /// Consumes the TOP/LIMIT count token (already known to be a number).
  Result<int64_t> ParseCount(std::string_view clause) {
    int64_t count = 0;
    if (!common::ParseNumber(Peek().text, &count)) {
      return Error(std::string(clause) + " count out of range");
    }
    Advance();
    return count;
  }

  Result<std::string> ExpectIdentifier(std::string_view what) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected " + std::string(what));
    }
    return Advance().text;
  }

  /// ident(.ident)* rendered with dots.
  Result<std::string> ParseQualifiedName() {
    HQ_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("name"));
    while (Peek().IsSymbol(".") && Peek(1).kind == TokenKind::kIdentifier) {
      Advance();
      name += "." + Advance().text;
    }
    return name;
  }

  bool PeekIsAnyKeyword(std::initializer_list<std::string_view> kws) const {
    for (auto kw : kws) {
      if (Peek().IsKeyword(kw)) return true;
    }
    return false;
  }

  /// Keywords that terminate a table alias position.
  bool PeekIsClauseKeyword() const {
    return PeekIsAnyKeyword({"WHERE", "GROUP", "HAVING", "ORDER", "JOIN", "INNER", "LEFT",
                             "ON", "SET", "FROM", "USING", "WHEN", "ELSE", "LIMIT", "UNION",
                             "ALL", "INTO"});
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    if (PeekIsClauseKeyword() || PeekIsAnyKeyword({"SELECT", "SEL", "INSERT", "UPDATE",
                                                   "DELETE", "MERGE", "CREATE", "DROP"})) {
      return Error("expected table name");
    }
    HQ_ASSIGN_OR_RETURN(ref.name, ParseQualifiedName());
    if (AcceptKeyword("AS")) {
      HQ_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier("alias"));
    } else if (Peek().kind == TokenKind::kIdentifier && !PeekIsClauseKeyword()) {
      ref.alias = Advance().text;
    }
    return ref;
  }

  // --- statements -----------------------------------------------------------

  Result<StatementPtr> ParseStatementInternal() {
    const Token& t = Peek();
    if (t.IsKeyword("SELECT") || t.IsKeyword("SEL")) return ParseSelectStatement();
    if (t.IsKeyword("INSERT") || t.IsKeyword("INS")) return ParseInsert();
    if (t.IsKeyword("UPDATE") || t.IsKeyword("UPD")) return ParseUpdate();
    if (t.IsKeyword("DELETE") || t.IsKeyword("DEL")) return ParseDelete();
    if (t.IsKeyword("MERGE")) return ParseMerge();
    if (t.IsKeyword("CREATE")) return ParseCreateTable();
    if (t.IsKeyword("DROP")) return ParseDropTable();
    return Error("expected a SQL statement");
  }

  Result<StatementPtr> ParseSelectStatement() {
    HQ_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> select, ParseSelect());
    return StatementPtr(std::move(select));
  }

  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    Advance();  // SELECT / SEL
    auto stmt = std::make_unique<SelectStmt>();
    if (AcceptKeyword("DISTINCT")) {
      stmt->distinct = true;
    } else {
      AcceptKeyword("ALL");
    }
    if (AcceptKeyword("TOP")) {
      if (Peek().kind != TokenKind::kNumberLiteral) return Error("expected TOP count");
      HQ_ASSIGN_OR_RETURN(stmt->top, ParseCount("TOP"));
    }
    // Select list.
    for (;;) {
      SelectItem item;
      HQ_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (AcceptKeyword("AS")) {
        HQ_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
      } else if (Peek().kind == TokenKind::kIdentifier && !PeekIsClauseKeyword()) {
        item.alias = Advance().text;
      }
      stmt->items.push_back(std::move(item));
      if (!Accept(",")) break;
    }
    if (AcceptKeyword("FROM")) {
      stmt->has_from = true;
      HQ_ASSIGN_OR_RETURN(stmt->from, ParseTableRef());
      while (PeekIsAnyKeyword({"JOIN", "INNER"})) {
        AcceptKeyword("INNER");
        HQ_RETURN_NOT_OK(ExpectKeyword("JOIN"));
        Join join;
        HQ_ASSIGN_OR_RETURN(join.table, ParseTableRef());
        HQ_RETURN_NOT_OK(ExpectKeyword("ON"));
        HQ_ASSIGN_OR_RETURN(join.on, ParseExpr());
        stmt->joins.push_back(std::move(join));
      }
    }
    if (AcceptKeyword("WHERE")) {
      HQ_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (AcceptKeyword("GROUP")) {
      HQ_RETURN_NOT_OK(ExpectKeyword("BY"));
      for (;;) {
        HQ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt->group_by.push_back(std::move(e));
        if (!Accept(",")) break;
      }
    }
    if (AcceptKeyword("HAVING")) {
      HQ_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    if (AcceptKeyword("ORDER")) {
      HQ_RETURN_NOT_OK(ExpectKeyword("BY"));
      for (;;) {
        OrderItem item;
        HQ_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("DESC")) {
          item.descending = true;
        } else {
          AcceptKeyword("ASC");
        }
        stmt->order_by.push_back(std::move(item));
        if (!Accept(",")) break;
      }
    }
    if (AcceptKeyword("LIMIT")) {
      if (Peek().kind != TokenKind::kNumberLiteral) return Error("expected LIMIT count");
      HQ_ASSIGN_OR_RETURN(stmt->top, ParseCount("LIMIT"));
    }
    return stmt;
  }

  Result<StatementPtr> ParseInsert() {
    Advance();  // INSERT / INS
    AcceptKeyword("INTO");
    auto stmt = std::make_unique<InsertStmt>();
    HQ_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedName());
    if (Peek().IsSymbol("(") && !PeekIsValuesAhead()) {
      // Column list.
      Advance();
      for (;;) {
        HQ_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
        stmt->columns.push_back(std::move(col));
        if (!Accept(",")) break;
      }
      HQ_RETURN_NOT_OK(Expect(")"));
    }
    if (AcceptKeyword("VALUES")) {
      for (;;) {
        HQ_RETURN_NOT_OK(Expect("("));
        std::vector<ExprPtr> row;
        for (;;) {
          HQ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          row.push_back(std::move(e));
          if (!Accept(",")) break;
        }
        HQ_RETURN_NOT_OK(Expect(")"));
        stmt->rows.push_back(std::move(row));
        if (!Accept(",")) break;
      }
    } else if (PeekIsAnyKeyword({"SELECT", "SEL"})) {
      HQ_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
    } else if (Peek().IsSymbol("(")) {
      // Legacy positional shorthand: INS t (expr, ...) — one VALUES row.
      Advance();
      std::vector<ExprPtr> row;
      for (;;) {
        HQ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
        if (!Accept(",")) break;
      }
      HQ_RETURN_NOT_OK(Expect(")"));
      stmt->rows.push_back(std::move(row));
    } else {
      return Error("expected VALUES or SELECT in INSERT");
    }
    return StatementPtr(std::move(stmt));
  }

  /// Disambiguates `INSERT INTO t (...)`: a column list vs legacy
  /// `INS t (expr, ...)` positional values shorthand. We only support the
  /// column-list reading when every element is a bare identifier followed by
  /// ',' or ')' and a VALUES/SELECT follows the ')'.
  bool PeekIsValuesAhead() {
    size_t i = pos_ + 1;  // past '('
    int depth = 1;
    bool bare_idents_only = true;
    while (i < tokens_.size() && depth > 0) {
      const Token& t = tokens_[i];
      if (t.IsSymbol("(")) ++depth;
      if (t.IsSymbol(")")) {
        --depth;
        ++i;
        continue;
      }
      if (depth == 1 && !(t.kind == TokenKind::kIdentifier || t.IsSymbol(","))) {
        bare_idents_only = false;
      }
      ++i;
    }
    if (!bare_idents_only) return true;  // expressions => VALUES shorthand
    if (i < tokens_.size() &&
        (tokens_[i].IsKeyword("VALUES") || tokens_[i].IsKeyword("SELECT") ||
         tokens_[i].IsKeyword("SEL"))) {
      return false;  // real column list
    }
    return true;
  }

  Result<StatementPtr> ParseUpdate() {
    Advance();  // UPDATE / UPD
    auto stmt = std::make_unique<UpdateStmt>();
    HQ_ASSIGN_OR_RETURN(stmt->table, ParseTableRef());
    HQ_RETURN_NOT_OK(ExpectKeyword("SET"));
    for (;;) {
      Assignment a;
      HQ_ASSIGN_OR_RETURN(a.column, ExpectIdentifier("column"));
      HQ_RETURN_NOT_OK(Expect("="));
      HQ_ASSIGN_OR_RETURN(a.value, ParseExpr());
      stmt->assignments.push_back(std::move(a));
      if (!Accept(",")) break;
    }
    if (AcceptKeyword("FROM")) {
      stmt->has_from = true;
      HQ_ASSIGN_OR_RETURN(stmt->from, ParseTableRef());
    }
    if (AcceptKeyword("WHERE")) {
      HQ_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (AcceptKeyword("ELSE")) {
      HQ_RETURN_NOT_OK(ExpectKeyword("INSERT"));
      stmt->has_else_insert = true;
      if (AcceptKeyword("INTO")) {
        HQ_ASSIGN_OR_RETURN(std::string name, ParseQualifiedName());
        if (!EqualsIgnoreCase(name, stmt->table.name)) {
          return Error("ELSE INSERT target must match UPDATE target");
        }
      }
      if (Peek().IsSymbol("(") && !PeekIsValuesAhead()) {
        Advance();
        for (;;) {
          HQ_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
          stmt->else_insert_columns.push_back(std::move(col));
          if (!Accept(",")) break;
        }
        HQ_RETURN_NOT_OK(Expect(")"));
      }
      HQ_RETURN_NOT_OK(ExpectKeyword("VALUES"));
      HQ_RETURN_NOT_OK(Expect("("));
      for (;;) {
        HQ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt->else_insert_values.push_back(std::move(e));
        if (!Accept(",")) break;
      }
      HQ_RETURN_NOT_OK(Expect(")"));
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseDelete() {
    Advance();  // DELETE / DEL
    auto stmt = std::make_unique<DeleteStmt>();
    AcceptKeyword("FROM");
    HQ_ASSIGN_OR_RETURN(stmt->table, ParseTableRef());
    if (AcceptKeyword("USING")) {
      stmt->has_using = true;
      HQ_ASSIGN_OR_RETURN(stmt->using_table, ParseTableRef());
    }
    if (AcceptKeyword("WHERE")) {
      HQ_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    AcceptKeyword("ALL");  // legacy `DEL FROM t ALL`
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseMerge() {
    Advance();  // MERGE
    HQ_RETURN_NOT_OK(ExpectKeyword("INTO"));
    auto stmt = std::make_unique<MergeStmt>();
    HQ_ASSIGN_OR_RETURN(stmt->target, ParseTableRef());
    HQ_RETURN_NOT_OK(ExpectKeyword("USING"));
    if (Accept("(")) {
      // Filtered source: (SELECT * FROM name WHERE expr) alias
      if (!AcceptKeyword("SELECT") && !AcceptKeyword("SEL")) {
        return Error("expected SELECT in MERGE source subquery");
      }
      HQ_RETURN_NOT_OK(Expect("*"));
      HQ_RETURN_NOT_OK(ExpectKeyword("FROM"));
      HQ_ASSIGN_OR_RETURN(stmt->source.name, ParseQualifiedName());
      if (AcceptKeyword("WHERE")) {
        HQ_ASSIGN_OR_RETURN(stmt->source_filter, ParseExpr());
      }
      HQ_RETURN_NOT_OK(Expect(")"));
      HQ_ASSIGN_OR_RETURN(stmt->source.alias, ExpectIdentifier("source alias"));
    } else {
      HQ_ASSIGN_OR_RETURN(stmt->source, ParseTableRef());
    }
    HQ_RETURN_NOT_OK(ExpectKeyword("ON"));
    HQ_ASSIGN_OR_RETURN(stmt->on, ParseExpr());
    while (AcceptKeyword("WHEN")) {
      if (AcceptKeyword("MATCHED")) {
        HQ_RETURN_NOT_OK(ExpectKeyword("THEN"));
        HQ_RETURN_NOT_OK(ExpectKeyword("UPDATE"));
        HQ_RETURN_NOT_OK(ExpectKeyword("SET"));
        for (;;) {
          Assignment a;
          HQ_ASSIGN_OR_RETURN(a.column, ExpectIdentifier("column"));
          HQ_RETURN_NOT_OK(Expect("="));
          HQ_ASSIGN_OR_RETURN(a.value, ParseExpr());
          stmt->matched_update.push_back(std::move(a));
          if (!Accept(",")) break;
        }
      } else if (AcceptKeyword("NOT")) {
        HQ_RETURN_NOT_OK(ExpectKeyword("MATCHED"));
        HQ_RETURN_NOT_OK(ExpectKeyword("THEN"));
        HQ_RETURN_NOT_OK(ExpectKeyword("INSERT"));
        if (Peek().IsSymbol("(") && !PeekIsValuesAhead()) {
          Advance();
          for (;;) {
            HQ_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
            stmt->insert_columns.push_back(std::move(col));
            if (!Accept(",")) break;
          }
          HQ_RETURN_NOT_OK(Expect(")"));
        }
        HQ_RETURN_NOT_OK(ExpectKeyword("VALUES"));
        HQ_RETURN_NOT_OK(Expect("("));
        for (;;) {
          HQ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          stmt->insert_values.push_back(std::move(e));
          if (!Accept(",")) break;
        }
        HQ_RETURN_NOT_OK(Expect(")"));
      } else {
        return Error("expected MATCHED or NOT MATCHED");
      }
    }
    return StatementPtr(std::move(stmt));
  }

  Result<StatementPtr> ParseCreateTable() {
    Advance();  // CREATE
    // Legacy table kind modifiers are accepted and ignored.
    AcceptKeyword("MULTISET");
    AcceptKeyword("SET");
    HQ_RETURN_NOT_OK(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<CreateTableStmt>();
    if (AcceptKeyword("IF")) {
      HQ_RETURN_NOT_OK(ExpectKeyword("NOT"));
      HQ_RETURN_NOT_OK(ExpectKeyword("EXISTS"));
      stmt->if_not_exists = true;
    }
    HQ_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedName());
    HQ_RETURN_NOT_OK(Expect("("));
    for (;;) {
      if (AcceptKeyword("PRIMARY")) {
        HQ_RETURN_NOT_OK(ExpectKeyword("KEY"));
        HQ_RETURN_NOT_OK(Expect("("));
        for (;;) {
          HQ_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
          stmt->primary_key.push_back(std::move(col));
          if (!Accept(",")) break;
        }
        HQ_RETURN_NOT_OK(Expect(")"));
        stmt->unique_primary = true;
      } else {
        HQ_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("column name"));
        HQ_ASSIGN_OR_RETURN(TypeDesc type, ParseColumnType());
        bool nullable = true;
        for (;;) {
          if (AcceptKeyword("NOT")) {
            HQ_RETURN_NOT_OK(ExpectKeyword("NULL"));
            nullable = false;
          } else if (AcceptKeyword("CHARACTER")) {
            HQ_RETURN_NOT_OK(ExpectKeyword("SET"));
            HQ_ASSIGN_OR_RETURN(std::string cs, ExpectIdentifier("charset"));
            if (EqualsIgnoreCase(cs, "UNICODE")) type.charset = types::CharSet::kUnicode;
          } else {
            break;
          }
        }
        stmt->schema.AddField(types::Field(name, type, nullable));
      }
      if (!Accept(",")) break;
    }
    HQ_RETURN_NOT_OK(Expect(")"));
    // Legacy `UNIQUE PRIMARY INDEX (cols)` suffix.
    if (AcceptKeyword("UNIQUE")) {
      HQ_RETURN_NOT_OK(ExpectKeyword("PRIMARY"));
      HQ_RETURN_NOT_OK(ExpectKeyword("INDEX"));
      HQ_RETURN_NOT_OK(Expect("("));
      for (;;) {
        HQ_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
        stmt->primary_key.push_back(std::move(col));
        if (!Accept(",")) break;
      }
      HQ_RETURN_NOT_OK(Expect(")"));
      stmt->unique_primary = true;
    }
    return StatementPtr(std::move(stmt));
  }

  /// Column type: identifier plus optional parenthesized params, fed into
  /// types::ParseTypeName.
  Result<TypeDesc> ParseColumnType() {
    HQ_ASSIGN_OR_RETURN(std::string text, ExpectIdentifier("type name"));
    if (Accept("(")) {
      text += "(";
      for (;;) {
        if (Peek().kind != TokenKind::kNumberLiteral) {
          return Error("expected number in type parameters");
        }
        text += Advance().text;
        if (Accept(",")) {
          text += ",";
          continue;
        }
        break;
      }
      HQ_RETURN_NOT_OK(Expect(")"));
      text += ")";
    }
    // PRECISION in DOUBLE PRECISION.
    AcceptKeyword("PRECISION");
    return types::ParseTypeName(text);
  }

  Result<StatementPtr> ParseDropTable() {
    Advance();  // DROP
    HQ_RETURN_NOT_OK(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<DropTableStmt>();
    if (AcceptKeyword("IF")) {
      HQ_RETURN_NOT_OK(ExpectKeyword("EXISTS"));
      stmt->if_exists = true;
    }
    HQ_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedName());
    return StatementPtr(std::move(stmt));
  }

  // --- expressions ----------------------------------------------------------

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    HQ_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (AcceptKeyword("OR")) {
      HQ_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = std::make_unique<BinaryExpr>(BinaryOp::kOr, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    HQ_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (AcceptKeyword("AND")) {
      HQ_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = std::make_unique<BinaryExpr>(BinaryOp::kAnd, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (AcceptKeyword("NOT")) {
      HQ_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return ExprPtr(std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(operand)));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    HQ_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    for (;;) {
      BinaryOp op;
      if (Accept("=")) {
        op = BinaryOp::kEq;
      } else if (Accept("<>") || Accept("!=")) {
        op = BinaryOp::kNe;
      } else if (Accept("<=")) {
        op = BinaryOp::kLe;
      } else if (Accept(">=")) {
        op = BinaryOp::kGe;
      } else if (Accept("<")) {
        op = BinaryOp::kLt;
      } else if (Accept(">")) {
        op = BinaryOp::kGt;
      } else if (Peek().IsKeyword("LIKE")) {
        Advance();
        op = BinaryOp::kLike;
      } else if (Peek().IsKeyword("IS")) {
        Advance();
        bool negated = AcceptKeyword("NOT");
        HQ_RETURN_NOT_OK(ExpectKeyword("NULL"));
        left = std::make_unique<IsNullExpr>(std::move(left), negated);
        continue;
      } else if (Peek().IsKeyword("IN") ||
                 (Peek().IsKeyword("NOT") && Peek(1).IsKeyword("IN"))) {
        bool negated = AcceptKeyword("NOT");
        HQ_RETURN_NOT_OK(ExpectKeyword("IN"));
        HQ_RETURN_NOT_OK(Expect("("));
        auto in = std::make_unique<InListExpr>();
        in->operand = std::move(left);
        in->negated = negated;
        for (;;) {
          HQ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          in->list.push_back(std::move(e));
          if (!Accept(",")) break;
        }
        HQ_RETURN_NOT_OK(Expect(")"));
        left = std::move(in);
        continue;
      } else if (Peek().IsKeyword("BETWEEN") ||
                 (Peek().IsKeyword("NOT") && Peek(1).IsKeyword("BETWEEN"))) {
        bool negated = AcceptKeyword("NOT");
        HQ_RETURN_NOT_OK(ExpectKeyword("BETWEEN"));
        auto between = std::make_unique<BetweenExpr>();
        between->operand = std::move(left);
        between->negated = negated;
        HQ_ASSIGN_OR_RETURN(between->low, ParseAdditive());
        HQ_RETURN_NOT_OK(ExpectKeyword("AND"));
        HQ_ASSIGN_OR_RETURN(between->high, ParseAdditive());
        left = std::move(between);
        continue;
      } else {
        break;
      }
      HQ_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
      left = std::make_unique<BinaryExpr>(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAdditive() {
    HQ_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    for (;;) {
      BinaryOp op;
      if (Accept("+")) {
        op = BinaryOp::kAdd;
      } else if (Accept("-")) {
        op = BinaryOp::kSub;
      } else if (Accept("||")) {
        op = BinaryOp::kConcat;
      } else {
        break;
      }
      HQ_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      left = std::make_unique<BinaryExpr>(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseMultiplicative() {
    HQ_ASSIGN_OR_RETURN(ExprPtr left, ParsePower());
    for (;;) {
      BinaryOp op;
      if (Peek().IsSymbol("*") && !IsSelectStarContext()) {
        Advance();
        op = BinaryOp::kMul;
      } else if (Accept("/")) {
        op = BinaryOp::kDiv;
      } else if (Accept("%")) {
        op = BinaryOp::kMod;
      } else if (Peek().IsKeyword("MOD")) {
        Advance();
        op = BinaryOp::kMod;
      } else {
        break;
      }
      HQ_ASSIGN_OR_RETURN(ExprPtr right, ParsePower());
      left = std::make_unique<BinaryExpr>(op, std::move(left), std::move(right));
    }
    return left;
  }

  /// '*' directly after '(' or 'SELECT' is the star form, not multiply; we
  /// only reach here with a left operand so '*' is always multiplication.
  bool IsSelectStarContext() const { return false; }

  Result<ExprPtr> ParsePower() {
    HQ_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    if (Accept("**")) {
      // Right associative.
      HQ_ASSIGN_OR_RETURN(ExprPtr right, ParsePower());
      return ExprPtr(
          std::make_unique<BinaryExpr>(BinaryOp::kPow, std::move(left), std::move(right)));
    }
    return left;
  }

  Result<ExprPtr> ParseUnary() {
    if (Accept("-")) {
      HQ_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return ExprPtr(std::make_unique<UnaryExpr>(UnaryOp::kNegate, std::move(operand)));
    }
    if (Accept("+")) return ParseUnary();
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kNumberLiteral) {
      if (t.text.find('.') != std::string::npos || t.text.find('e') != std::string::npos ||
          t.text.find('E') != std::string::npos) {
        double d = 0;
        if (!common::ParseNumber(t.text, &d)) return Error("numeric literal out of range");
        Advance();
        return ExprPtr(std::make_unique<LiteralExpr>(Value::Float(d)));
      }
      int64_t i = 0;
      if (!common::ParseNumber(t.text, &i)) return Error("integer literal out of range");
      Advance();
      return ExprPtr(std::make_unique<LiteralExpr>(Value::Int(i)));
    }
    if (t.kind == TokenKind::kStringLiteral) {
      Advance();
      return ExprPtr(std::make_unique<LiteralExpr>(Value::String(t.text)));
    }
    if (t.kind == TokenKind::kPlaceholder) {
      Advance();
      return ExprPtr(std::make_unique<PlaceholderExpr>(t.text));
    }
    if (t.IsSymbol("*")) {
      Advance();
      return ExprPtr(std::make_unique<StarExpr>());
    }
    if (t.IsSymbol("(")) {
      Advance();
      HQ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      HQ_RETURN_NOT_OK(Expect(")"));
      return e;
    }
    if (t.IsSymbol("?")) {
      return Error("positional '?' parameters are not part of either dialect");
    }
    if (t.kind != TokenKind::kIdentifier) {
      return Error("expected expression");
    }
    // Keyword-led expression forms.
    if (t.IsKeyword("NULL")) {
      Advance();
      return ExprPtr(std::make_unique<LiteralExpr>(Value::Null()));
    }
    if (t.IsKeyword("TRUE") || t.IsKeyword("FALSE")) {
      Advance();
      return ExprPtr(std::make_unique<LiteralExpr>(Value::Boolean(t.IsKeyword("TRUE"))));
    }
    if (t.IsKeyword("DATE") && Peek(1).kind == TokenKind::kStringLiteral) {
      Advance();
      const Token& lit = Advance();
      HQ_ASSIGN_OR_RETURN(types::DateDays days, types::ParseDate(lit.text, "YYYY-MM-DD"));
      return ExprPtr(std::make_unique<LiteralExpr>(Value::Date(days)));
    }
    if (t.IsKeyword("TIMESTAMP") && Peek(1).kind == TokenKind::kStringLiteral) {
      Advance();
      const Token& lit = Advance();
      HQ_ASSIGN_OR_RETURN(types::TimestampMicros ts, types::ParseTimestampIso(lit.text));
      return ExprPtr(std::make_unique<LiteralExpr>(Value::Timestamp(ts)));
    }
    if (t.IsKeyword("CAST") || (t.IsKeyword("TRY_CAST") && Peek(1).IsSymbol("("))) {
      const bool is_try = t.IsKeyword("TRY_CAST");
      Advance();
      HQ_RETURN_NOT_OK(Expect("("));
      HQ_ASSIGN_OR_RETURN(ExprPtr operand, ParseExpr());
      HQ_RETURN_NOT_OK(ExpectKeyword("AS"));
      HQ_ASSIGN_OR_RETURN(TypeDesc type, ParseColumnType());
      std::string format;
      if (AcceptKeyword("FORMAT")) {
        if (Peek().kind != TokenKind::kStringLiteral) {
          return Error("expected FORMAT string literal");
        }
        format = Advance().text;
      }
      HQ_RETURN_NOT_OK(Expect(")"));
      return ExprPtr(
          std::make_unique<CastExpr>(std::move(operand), type, std::move(format), is_try));
    }
    if (t.IsKeyword("CASE")) {
      Advance();
      auto expr = std::make_unique<CaseExpr>();
      if (!Peek().IsKeyword("WHEN")) {
        HQ_ASSIGN_OR_RETURN(expr->operand, ParseExpr());
      }
      while (AcceptKeyword("WHEN")) {
        HQ_ASSIGN_OR_RETURN(ExprPtr when, ParseExpr());
        HQ_RETURN_NOT_OK(ExpectKeyword("THEN"));
        HQ_ASSIGN_OR_RETURN(ExprPtr then, ParseExpr());
        expr->whens.emplace_back(std::move(when), std::move(then));
      }
      if (expr->whens.empty()) return Error("CASE requires at least one WHEN");
      if (AcceptKeyword("ELSE")) {
        HQ_ASSIGN_OR_RETURN(expr->else_expr, ParseExpr());
      }
      HQ_RETURN_NOT_OK(ExpectKeyword("END"));
      return ExprPtr(std::move(expr));
    }
    if (t.IsKeyword("SUBSTRING") && Peek(1).IsSymbol("(")) {
      // SUBSTRING(x FROM a [FOR b]) — normalize to SUBSTR(x, a[, b]).
      Advance();
      Advance();
      auto fn = std::make_unique<FunctionExpr>();
      fn->name = "SUBSTR";
      HQ_ASSIGN_OR_RETURN(ExprPtr x, ParseExpr());
      fn->args.push_back(std::move(x));
      if (AcceptKeyword("FROM")) {
        HQ_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
        fn->args.push_back(std::move(a));
        if (AcceptKeyword("FOR")) {
          HQ_ASSIGN_OR_RETURN(ExprPtr b, ParseExpr());
          fn->args.push_back(std::move(b));
        }
      } else {
        while (Accept(",")) {
          HQ_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
          fn->args.push_back(std::move(a));
        }
      }
      HQ_RETURN_NOT_OK(Expect(")"));
      return ExprPtr(std::move(fn));
    }
    if (t.IsKeyword("POSITION") && Peek(1).IsSymbol("(")) {
      // POSITION(needle IN haystack) — normalize to POSITION(needle, haystack).
      Advance();
      Advance();
      auto fn = std::make_unique<FunctionExpr>();
      fn->name = "POSITION";
      // The needle parses below comparison level so IN stays a separator.
      HQ_ASSIGN_OR_RETURN(ExprPtr needle, ParseAdditive());
      fn->args.push_back(std::move(needle));
      if (AcceptKeyword("IN")) {
        HQ_ASSIGN_OR_RETURN(ExprPtr hay, ParseExpr());
        fn->args.push_back(std::move(hay));
      } else {
        HQ_RETURN_NOT_OK(Expect(","));
        HQ_ASSIGN_OR_RETURN(ExprPtr hay, ParseExpr());
        fn->args.push_back(std::move(hay));
      }
      HQ_RETURN_NOT_OK(Expect(")"));
      return ExprPtr(std::move(fn));
    }
    if (t.IsKeyword("EXTRACT") && Peek(1).IsSymbol("(")) {
      // EXTRACT(YEAR|MONTH|DAY FROM x), normalized to EXTRACT('YEAR', x)
      // (the printed form, which this branch also accepts).
      Advance();
      Advance();
      std::string unit;
      bool printed_form = Peek().kind == TokenKind::kStringLiteral;
      if (printed_form) {
        unit = Advance().text;
      } else {
        HQ_ASSIGN_OR_RETURN(unit, ExpectIdentifier("EXTRACT unit"));
      }
      std::string unit_upper = common::ToUpper(unit);
      if (unit_upper != "YEAR" && unit_upper != "MONTH" && unit_upper != "DAY") {
        return Error("unsupported EXTRACT unit: " + unit);
      }
      if (printed_form) {
        HQ_RETURN_NOT_OK(Expect(","));
      } else {
        HQ_RETURN_NOT_OK(ExpectKeyword("FROM"));
      }
      auto fn = std::make_unique<FunctionExpr>();
      fn->name = "EXTRACT";
      fn->args.push_back(std::make_unique<LiteralExpr>(Value::String(unit_upper)));
      HQ_ASSIGN_OR_RETURN(ExprPtr x, ParseExpr());
      fn->args.push_back(std::move(x));
      HQ_RETURN_NOT_OK(Expect(")"));
      return ExprPtr(std::move(fn));
    }
    if (t.IsKeyword("TRIM") && Peek(1).IsSymbol("(")) {
      // TRIM([LEADING|TRAILING|BOTH] [FROM] x) or TRIM(x).
      Advance();
      Advance();
      auto fn = std::make_unique<FunctionExpr>();
      fn->name = "TRIM";
      std::string mode = "BOTH";
      if (PeekIsAnyKeyword({"LEADING", "TRAILING", "BOTH"})) {
        mode = common::ToUpper(Advance().text);
        HQ_RETURN_NOT_OK(ExpectKeyword("FROM"));
      }
      HQ_ASSIGN_OR_RETURN(ExprPtr x, ParseExpr());
      fn->args.push_back(std::move(x));
      if (mode != "BOTH") {
        fn->name = mode == "LEADING" ? "LTRIM" : "RTRIM";
      }
      HQ_RETURN_NOT_OK(Expect(")"));
      return ExprPtr(std::move(fn));
    }
    // Function call or column reference.
    if (Peek(1).IsSymbol("(")) {
      std::string name = Advance().text;
      Advance();  // (
      auto fn = std::make_unique<FunctionExpr>();
      fn->name = std::move(name);
      if (!Peek().IsSymbol(")")) {
        if (AcceptKeyword("DISTINCT")) fn->distinct = true;
        for (;;) {
          HQ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          fn->args.push_back(std::move(e));
          if (!Accept(",")) break;
        }
      }
      HQ_RETURN_NOT_OK(Expect(")"));
      return ExprPtr(std::move(fn));
    }
    // Column reference: ident[.ident[.*]]
    std::string first = Advance().text;
    if (Accept(".")) {
      if (Peek().IsSymbol("*")) {
        Advance();
        // table.* — treated as plain star scoped by the executor.
        return ExprPtr(std::make_unique<StarExpr>());
      }
      HQ_ASSIGN_OR_RETURN(std::string second, ExpectIdentifier("column name"));
      // May be schema.table.column; fold schema+table into the qualifier.
      if (Accept(".")) {
        HQ_ASSIGN_OR_RETURN(std::string third, ExpectIdentifier("column name"));
        return ExprPtr(std::make_unique<ColumnRefExpr>(first + "." + second, third));
      }
      return ExprPtr(std::make_unique<ColumnRefExpr>(first, second));
    }
    return ExprPtr(std::make_unique<ColumnRefExpr>("", first));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<StatementPtr> ParseStatement(std::string_view sql) {
  HQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseOneStatement();
}

Result<std::vector<StatementPtr>> ParseScript(std::string_view sql) {
  HQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseAll();
}

Result<ExprPtr> ParseExpression(std::string_view text) {
  HQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseSingleExpression();
}

std::string_view BinaryOpSymbol(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "MOD";
    case BinaryOp::kPow:
      return "**";
    case BinaryOp::kConcat:
      return "||";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kLike:
      return "LIKE";
  }
  return "?";
}

}  // namespace hyperq::sql
