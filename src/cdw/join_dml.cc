#include "cdw/join_dml.h"

#include "common/string_util.h"

namespace hyperq::cdw {

using common::EqualsIgnoreCase;
using common::Result;
using common::Status;
using sql::ExprKind;
using types::TypeId;
using types::Value;

namespace {

constexpr unsigned kTargetSide = 1;
constexpr unsigned kSourceSide = 2;

/// Flattens the top-level AND tree of a predicate, left to right.
void SplitConjuncts(const sql::Expr* expr, std::vector<const sql::Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kBinary) {
    const auto& b = static_cast<const sql::BinaryExpr&>(*expr);
    if (b.op == sql::BinaryOp::kAnd) {
      SplitConjuncts(b.left.get(), out);
      SplitConjuncts(b.right.get(), out);
      return;
    }
  }
  out->push_back(expr);
}

/// The side (kTargetSide/kSourceSide) and column a reference binds to under
/// the compiler's column resolution, or 0 when it is ambiguous or
/// unresolved.
unsigned ResolveSide(const JoinSides& sides, const sql::ColumnRefExpr& col, size_t* column) {
  unsigned found = 0;
  auto probe = [&](const std::string& alias, const Table& table, unsigned side) {
    if (!col.table.empty() && !EqualsIgnoreCase(alias, col.table)) return true;
    int idx = table.schema().FieldIndex(col.column);
    if (idx < 0) return true;
    if (found != 0) return false;
    found = side;
    *column = static_cast<size_t>(idx);
    return true;
  };
  if (!probe(sides.target_alias, *sides.target, kTargetSide) ||
      !probe(sides.source_alias, *sides.source, kSourceSide)) {
    return 0;
  }
  return found;
}

/// ORs into `mask` the sides an expression's column references bind to.
/// False when one of them is ambiguous or unresolved.
bool CollectSides(const sql::Expr& expr, const JoinSides& sides, unsigned* mask) {
  auto all = [&](const std::vector<sql::ExprPtr>& list) {
    for (const auto& e : list) {
      if (!CollectSides(*e, sides, mask)) return false;
    }
    return true;
  };
  switch (expr.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kPlaceholder:
    case ExprKind::kStar:
      return true;
    case ExprKind::kColumnRef: {
      size_t column = 0;
      unsigned side = ResolveSide(sides, static_cast<const sql::ColumnRefExpr&>(expr), &column);
      *mask |= side;
      return side != 0;
    }
    case ExprKind::kUnary:
      return CollectSides(*static_cast<const sql::UnaryExpr&>(expr).operand, sides, mask);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(expr);
      return CollectSides(*b.left, sides, mask) && CollectSides(*b.right, sides, mask);
    }
    case ExprKind::kFunction:
      return all(static_cast<const sql::FunctionExpr&>(expr).args);
    case ExprKind::kCast:
      return CollectSides(*static_cast<const sql::CastExpr&>(expr).operand, sides, mask);
    case ExprKind::kCase: {
      const auto& c = static_cast<const sql::CaseExpr&>(expr);
      if (c.operand && !CollectSides(*c.operand, sides, mask)) return false;
      for (const auto& [w, t] : c.whens) {
        if (!CollectSides(*w, sides, mask) || !CollectSides(*t, sides, mask)) return false;
      }
      return !c.else_expr || CollectSides(*c.else_expr, sides, mask);
    }
    case ExprKind::kIsNull:
      return CollectSides(*static_cast<const sql::IsNullExpr&>(expr).operand, sides, mask);
    case ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      return CollectSides(*in.operand, sides, mask) && all(in.list);
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const sql::BetweenExpr&>(expr);
      return CollectSides(*bt.operand, sides, mask) && CollectSides(*bt.low, sides, mask) &&
             CollectSides(*bt.high, sides, mask);
    }
  }
  return false;
}

}  // namespace

JoinMatcher::JoinMatcher(const JoinSides& sides, bool allow_hash) : sides_(sides) {
  hash_ = allow_hash && Plan() && BuildIndex();
  if (!hash_) {
    index_.clear();
    const ScanBinding pair[] = {{sides_.target_alias, sides_.target},
                                {sides_.source_alias, sides_.source}};
    predicate_ = CompiledExpr::CompilePredicate(sides_.predicate, pair);
  }
}

bool JoinMatcher::Plan() {
  // Key families whose `=` is exact equality of the stored payloads. Float,
  // decimal and cross-family pairs stay on the nested loop: CompareValues
  // parses strings into those families, which can fail or equate values
  // with different bytes.
  auto family = [](TypeId id) -> std::optional<KeyFamily> {
    switch (id) {
      case TypeId::kChar:
      case TypeId::kVarchar:
        return KeyFamily::kString;
      case TypeId::kInt8:
      case TypeId::kInt16:
      case TypeId::kInt32:
      case TypeId::kInt64:
        return KeyFamily::kInt;
      case TypeId::kDate:
        return KeyFamily::kDate;
      case TypeId::kBoolean:
      case TypeId::kFloat64:
      case TypeId::kDecimal:
      case TypeId::kTimestamp:
        return std::nullopt;
    }
    return std::nullopt;
  };
  std::vector<const sql::Expr*> conjuncts;
  SplitConjuncts(sides_.predicate, &conjuncts);
  for (const sql::Expr* conjunct : conjuncts) {
    if (conjunct->kind == ExprKind::kBinary) {
      const auto& eq = static_cast<const sql::BinaryExpr&>(*conjunct);
      if (eq.op == sql::BinaryOp::kEq && eq.left->kind == ExprKind::kColumnRef &&
          eq.right->kind == ExprKind::kColumnRef) {
        size_t lcol = 0;
        size_t rcol = 0;
        unsigned lside =
            ResolveSide(sides_, static_cast<const sql::ColumnRefExpr&>(*eq.left), &lcol);
        unsigned rside =
            ResolveSide(sides_, static_cast<const sql::ColumnRefExpr&>(*eq.right), &rcol);
        if (lside == 0 || rside == 0) return false;
        if (lside != rside) {
          const size_t target_col = lside == kTargetSide ? lcol : rcol;
          const size_t source_col = lside == kTargetSide ? rcol : lcol;
          std::optional<KeyFamily> tf = family(sides_.target->schema().field(target_col).type.id);
          std::optional<KeyFamily> sf = family(sides_.source->schema().field(source_col).type.id);
          if (!tf || tf != sf) return false;
          driving_keys_.push_back(sides_.drive_source ? source_col : target_col);
          other_keys_.push_back(sides_.drive_source ? target_col : source_col);
          families_.push_back(*tf);
          continue;
        }
      }
    }
    unsigned mask = 0;
    if (!CollectSides(*conjunct, sides_, &mask)) return false;
    if (mask == (kTargetSide | kSourceSide)) return false;
    // A constant conjunct rides with the driving side.
    const unsigned driving_side = sides_.drive_source ? kSourceSide : kTargetSide;
    const bool on_driving = mask == 0 || mask == driving_side;
    const bool on_source = on_driving == sides_.drive_source;
    const ScanBinding side = on_source ? ScanBinding{sides_.source_alias, sides_.source}
                                       : ScanBinding{sides_.target_alias, sides_.target};
    (on_driving ? driving_residuals_ : other_residuals_)
        .push_back(CompiledExpr::Compile(*conjunct, std::span(&side, 1)));
  }
  return !driving_keys_.empty();
}

bool JoinMatcher::BuildIndex() {
  const Table& table = other();
  index_.reserve(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    ++rows_scanned_;
    int pass = other_residuals_.empty() ? 1 : Residuals(other_residuals_, r);
    if (pass < 0) return false;
    KeyStatus key = EncodeKey(other_keys_, table, r);
    if (key == KeyStatus::kUndecidable) return false;
    if (pass == 0 || key == KeyStatus::kNull) continue;
    auto [it, fresh] = index_.try_emplace(key_, JoinMatch{static_cast<int64_t>(r), false});
    if (!fresh) it->second.multiple = true;
  }
  return true;
}

int JoinMatcher::Residuals(const std::vector<CompiledExpr>& residuals, size_t row) const {
  // Every conjunct is evaluated, as the AND in the pair context would: a
  // later one's error must surface even after an earlier one is false.
  int pass = 1;
  for (const CompiledExpr& residual : residuals) {
    Result<const Value*> v = residual.Eval(&row);
    if (!v.ok()) return -1;
    const Value& value = **v;
    if (value.is_null()) {
      pass = 0;
    } else if (!value.is_boolean()) {
      return -1;
    } else if (!value.boolean()) {
      pass = 0;
    }
  }
  return pass;
}

JoinMatcher::KeyStatus JoinMatcher::EncodeKey(const std::vector<size_t>& columns,
                                              const Table& table, size_t row) {
  key_.clear();
  bool has_null = false;
  for (size_t i = 0; i < columns.size(); ++i) {
    const Value& v = table.At(row, columns[i]);
    if (v.is_null()) {
      has_null = true;  // NULL never matches, but later columns' kinds still count
      continue;
    }
    switch (families_[i]) {
      case KeyFamily::kString: {
        if (!v.is_string()) return KeyStatus::kUndecidable;
        const std::string& s = v.string_value();
        const auto len = static_cast<uint32_t>(s.size());
        key_.append(reinterpret_cast<const char*>(&len), sizeof(len));
        key_ += s;
        break;
      }
      case KeyFamily::kInt: {
        if (!v.is_int()) return KeyStatus::kUndecidable;
        const int64_t x = v.int_value();
        key_.append(reinterpret_cast<const char*>(&x), sizeof(x));
        break;
      }
      case KeyFamily::kDate: {
        if (!v.is_date()) return KeyStatus::kUndecidable;
        const types::DateDays d = v.date_days();
        key_.append(reinterpret_cast<const char*>(&d), sizeof(d));
        break;
      }
    }
  }
  return has_null ? KeyStatus::kNull : KeyStatus::kKey;
}

Result<JoinMatch> JoinMatcher::Match(size_t row, bool want_unique) {
  if (!hash_) return NestedLoopMatch(row, want_unique);
  int pass = driving_residuals_.empty() ? 1 : Residuals(driving_residuals_, row);
  KeyStatus key = pass < 0 ? KeyStatus::kUndecidable : EncodeKey(driving_keys_, driving(), row);
  if (key == KeyStatus::kUndecidable) {
    fell_back_ = true;
    return Status::Internal("join DML hash path fell back to the nested loop");
  }
  if (pass == 0 || key == KeyStatus::kNull) return JoinMatch{};
  auto it = index_.find(key_);
  return it == index_.end() ? JoinMatch{} : it->second;
}

// The nested loop: the whole predicate per (driving, other) pair, in the
// other side's row order. It is the reference semantics the hash path must
// reproduce, and the only path for predicates the planner cannot split.
Result<JoinMatch> JoinMatcher::NestedLoopMatch(size_t row, bool want_unique) {
  JoinMatch match;
  const Table& table = other();
  const size_t other_binding = sides_.drive_source ? 0 : 1;
  size_t rows[2] = {row, row};  // target row, source row
  for (size_t r = 0; r < table.num_rows(); ++r) {
    rows[other_binding] = r;
    ++rows_scanned_;
    HQ_ASSIGN_OR_RETURN(bool on, predicate_.Test(rows));
    if (!on) continue;
    if (match.row >= 0) {
      match.multiple = true;
      return match;
    }
    match.row = static_cast<int64_t>(r);
    if (!want_unique) return match;
  }
  return match;
}

Result<ExecResult> RunJoinDml(const JoinSides& sides, bool allow_hash, uint64_t* rows_scanned,
                              const std::function<Result<ExecResult>(JoinMatcher&)>& body) {
  JoinMatcher matcher(sides, allow_hash);
  Result<ExecResult> result = body(matcher);
  *rows_scanned += matcher.rows_scanned();
  JoinPath path = matcher.path();
  if (matcher.fell_back()) {
    // A residual error or an off-kind stored value: re-run on the nested
    // loop so the outcome, error Status included, is the oracle's.
    JoinMatcher nested_loop(sides, /*allow_hash=*/false);
    result = body(nested_loop);
    *rows_scanned += nested_loop.rows_scanned();
    path = JoinPath::kNestedLoop;
  }
  if (result.ok()) result->join_path = path;
  return result;
}

}  // namespace hyperq::cdw
