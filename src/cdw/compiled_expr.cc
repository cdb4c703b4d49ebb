#include "cdw/compiled_expr.h"

#include <optional>
#include <set>

#include "cdw/expr_eval.h"
#include "cdw/table.h"
#include "common/string_util.h"
#include "types/date.h"

namespace hyperq::cdw {

using common::EqualsIgnoreCase;
using common::Result;
using common::Status;
using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using types::Value;

namespace {

enum class Op : uint8_t {
  kLiteral,
  kColumn,
  kFail,           ///< returns `status` without evaluating anything
  kFailAfterArgs,  ///< evaluates `args` in order, then returns `status`
  kUnary,
  kLogical,  ///< AND / OR
  kBinary,
  kFunction,
  kToDate,  ///< TO_DATE(x, 'literal format'), format parsed once
  kCast,
  kCase,
  kIsNull,
  kInList,
  kBetween,
  kAggregate,  ///< grouped only: folds `args[0]` over the group's rows
  kFirstRow,   ///< grouped only: `args[0]` at the group's first row
};

enum class Aggregate : uint8_t { kCount, kSum, kMin, kMax, kAvg };

// Shared results: a node that yields NULL or a boolean points at one of
// these instead of storing a value.
const Value kNull;
const Value kTrue = Value::Boolean(true);
const Value kFalse = Value::Boolean(false);

const Value* BooleanValue(bool b) { return b ? &kTrue : &kFalse; }

}  // namespace

struct CompiledExpr::Node {
  Op op;
  sql::UnaryOp unary_op = sql::UnaryOp::kNot;
  BinaryOp binary_op = BinaryOp::kAnd;
  ScalarFn fn = ScalarFn::kUnknown;
  Aggregate aggregate = Aggregate::kCount;
  bool negated = false;      // IS NOT NULL, NOT IN, NOT BETWEEN
  bool has_operand = false;  // CASE x WHEN ...: args[0] is x
  bool has_else = false;     // CASE ... ELSE: the last arg
  bool distinct = false;     // aggregate DISTINCT
  bool count_star = false;   // COUNT(*)
  bool try_convert = false;  // TRY_TO_DATE, TRY_CAST: a ConversionError is NULL
  const Table* table = nullptr;
  size_t binding = 0;
  size_t column = 0;
  std::string name;  // function name as written, for messages
  types::TypeDesc cast_target;
  Status status;
  std::optional<types::DateFormat> date_format;
  std::vector<const Node*> args;
  /// Argument values of the last kFunction evaluation.
  mutable std::vector<const Value*> arg_values;
  /// The literal, or the node's last computed result.
  mutable Value value;
};

struct CompiledExpr::Frame {
  const size_t* rows;
  const GroupRows* group;
};

class CompiledExpr::Compiler {
 public:
  Compiler(CompiledExpr* out, std::span<const ScanBinding> bindings)
      : out_(out), bindings_(bindings) {}

  const Node* Scalar(const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kLiteral: {
        Node* node = Add(Op::kLiteral);
        node->value = static_cast<const sql::LiteralExpr&>(expr).value;
        return node;
      }
      case ExprKind::kColumnRef:
        return Column(static_cast<const sql::ColumnRefExpr&>(expr));
      case ExprKind::kPlaceholder:
        return Fail(PlaceholderInCdw());
      case ExprKind::kStar:
        return Fail(Status::Invalid("'*' is not a scalar expression"));
      case ExprKind::kUnary: {
        const auto& u = static_cast<const sql::UnaryExpr&>(expr);
        Node* node = Add(Op::kUnary, {Scalar(*u.operand)});
        node->unary_op = u.op;
        return node;
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const sql::BinaryExpr&>(expr);
        if (b.op == BinaryOp::kPow) return Fail(LegacyPowerOperator());
        return Binary(b.op, Scalar(*b.left), Scalar(*b.right));
      }
      case ExprKind::kFunction: {
        const auto& fn = static_cast<const sql::FunctionExpr&>(expr);
        if (IsAggregateFunction(fn.name)) return Fail(AggregateInScalarContext(fn.name));
        // Legacy-only functions must have been transpiled away.
        if (IsLegacyFunction(fn.name)) return Fail(LegacyFunctionCall(fn.name));
        std::vector<const Node*> args;
        for (const auto& a : fn.args) args.push_back(Scalar(*a));
        const ScalarFn kind = LookupScalarFn(fn.name);
        if ((kind == ScalarFn::kToDate || kind == ScalarFn::kTryToDate) && args.size() == 2 &&
            args[1]->op == Op::kLiteral && args[1]->value.is_string()) {
          Node* node = Add(Op::kToDate, std::move(args));
          node->date_format.emplace(node->args[1]->value.string_value());
          node->try_convert = kind == ScalarFn::kTryToDate;
          return node;
        }
        return Function(fn, kind, std::move(args));
      }
      case ExprKind::kCast: {
        const auto& cast = static_cast<const sql::CastExpr&>(expr);
        if (!cast.format.empty()) return Fail(LegacyFormatCast());
        return Cast(cast, Scalar(*cast.operand));
      }
      case ExprKind::kCase: {
        const auto& c = static_cast<const sql::CaseExpr&>(expr);
        std::vector<const Node*> args;
        if (c.operand) args.push_back(Scalar(*c.operand));
        for (const auto& [when, then] : c.whens) {
          args.push_back(Scalar(*when));
          args.push_back(Scalar(*then));
        }
        if (c.else_expr) args.push_back(Scalar(*c.else_expr));
        Node* node = Add(Op::kCase, std::move(args));
        node->has_operand = static_cast<bool>(c.operand);
        node->has_else = static_cast<bool>(c.else_expr);
        return node;
      }
      case ExprKind::kIsNull: {
        const auto& isn = static_cast<const sql::IsNullExpr&>(expr);
        Node* node = Add(Op::kIsNull, {Scalar(*isn.operand)});
        node->negated = isn.negated;
        return node;
      }
      case ExprKind::kInList: {
        const auto& in = static_cast<const sql::InListExpr&>(expr);
        std::vector<const Node*> args{Scalar(*in.operand)};
        for (const auto& e : in.list) args.push_back(Scalar(*e));
        Node* node = Add(Op::kInList, std::move(args));
        node->negated = in.negated;
        return node;
      }
      case ExprKind::kBetween: {
        const auto& bt = static_cast<const sql::BetweenExpr&>(expr);
        Node* node = Add(Op::kBetween, {Scalar(*bt.operand), Scalar(*bt.low), Scalar(*bt.high)});
        node->negated = bt.negated;
        return node;
      }
    }
    return Fail(Status::Internal("unknown expression kind"));
  }

  // Aggregate context: a composite around an aggregate evaluates its
  // operands first and then applies its operator to their values, so a
  // legacy operator fails only after them; a subexpression without an
  // aggregate reads the group's first row.
  const Node* Grouped(const Expr& expr) {
    if (expr.kind == ExprKind::kFunction) {
      const auto& fn = static_cast<const sql::FunctionExpr&>(expr);
      if (IsAggregateFunction(fn.name)) return AggregateCall(fn);
      std::vector<const Node*> args;
      for (const auto& a : fn.args) args.push_back(Grouped(*a));
      if (IsLegacyFunction(fn.name)) return FailAfter(LegacyFunctionCall(fn.name), std::move(args));
      return Function(fn, LookupScalarFn(fn.name), std::move(args));
    }
    if (!ContainsAggregate(expr)) return Add(Op::kFirstRow, {Scalar(expr)});
    // Only these composite kinds can hold an aggregate.
    switch (expr.kind) {  // hqcheck:allow(enum-switch)
      case ExprKind::kUnary: {
        const auto& u = static_cast<const sql::UnaryExpr&>(expr);
        Node* node = Add(Op::kUnary, {Grouped(*u.operand)});
        node->unary_op = u.op;
        return node;
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const sql::BinaryExpr&>(expr);
        const Node* left = Grouped(*b.left);
        const Node* right = Grouped(*b.right);
        if (b.op == BinaryOp::kPow) return FailAfter(LegacyPowerOperator(), {left, right});
        return Binary(b.op, left, right);
      }
      case ExprKind::kCast: {
        const auto& cast = static_cast<const sql::CastExpr&>(expr);
        const Node* operand = Grouped(*cast.operand);
        if (!cast.format.empty()) return FailAfter(LegacyFormatCast(), {operand});
        return Cast(cast, operand);
      }
      default:
        return Fail(Status::NotImplemented("aggregate inside this expression form"));
    }
  }

 private:
  Node* Add(Op op, std::vector<const Node*> args = {}) {
    auto node = std::make_unique<Node>();
    node->op = op;
    node->args = std::move(args);
    Node* raw = node.get();
    out_->nodes_.push_back(std::move(node));
    return raw;
  }

  const Node* Fail(Status status) { return FailAfter(std::move(status), {}); }

  const Node* FailAfter(Status status, std::vector<const Node*> args) {
    const Op op = args.empty() ? Op::kFail : Op::kFailAfterArgs;
    Node* node = Add(op, std::move(args));
    node->status = std::move(status);
    return node;
  }

  // Resolved once per statement: the qualifier (case-insensitive) picks
  // bindings by alias, a second match is ambiguous, none is not found.
  const Node* Column(const sql::ColumnRefExpr& col) {
    const ScanBinding* found = nullptr;
    size_t binding = 0;
    size_t column = 0;
    for (size_t b = 0; b < bindings_.size(); ++b) {
      if (!col.table.empty() && !EqualsIgnoreCase(bindings_[b].alias, col.table)) continue;
      int idx = bindings_[b].table->schema().FieldIndex(col.column);
      if (idx < 0) continue;
      if (found != nullptr) {
        return Fail(Status::Invalid("ambiguous column reference: " + col.column));
      }
      found = &bindings_[b];
      binding = b;
      column = static_cast<size_t>(idx);
    }
    if (found == nullptr) {
      std::string full = col.table.empty() ? col.column : col.table + "." + col.column;
      return Fail(Status::NotFound("column not found: " + full));
    }
    Node* node = Add(Op::kColumn);
    node->table = found->table;
    node->binding = binding;
    node->column = column;
    return node;
  }

  const Node* Binary(BinaryOp op, const Node* left, const Node* right) {
    const bool logical = op == BinaryOp::kAnd || op == BinaryOp::kOr;
    Node* node = Add(logical ? Op::kLogical : Op::kBinary, {left, right});
    node->binary_op = op;
    return node;
  }

  const Node* Function(const sql::FunctionExpr& fn, ScalarFn kind,
                       std::vector<const Node*> args) {
    Node* node = Add(Op::kFunction, std::move(args));
    node->fn = kind;
    node->name = fn.name;
    node->arg_values.resize(node->args.size());
    return node;
  }

  const Node* Cast(const sql::CastExpr& cast, const Node* operand) {
    Node* node = Add(Op::kCast, {operand});
    node->cast_target = cast.target;
    node->try_convert = cast.try_cast;
    return node;
  }

  const Node* AggregateCall(const sql::FunctionExpr& fn) {
    if (fn.args.size() != 1) return Fail(Status::Invalid(fn.name + " takes one argument"));
    Node* node = Add(Op::kAggregate);
    node->name = fn.name;
    node->distinct = fn.distinct;
    if (EqualsIgnoreCase(fn.name, "COUNT")) {
      node->aggregate = Aggregate::kCount;
      node->count_star = fn.args[0]->kind == ExprKind::kStar;
    } else if (EqualsIgnoreCase(fn.name, "SUM")) {
      node->aggregate = Aggregate::kSum;
    } else if (EqualsIgnoreCase(fn.name, "MIN")) {
      node->aggregate = Aggregate::kMin;
    } else if (EqualsIgnoreCase(fn.name, "MAX")) {
      node->aggregate = Aggregate::kMax;
    } else {
      node->aggregate = Aggregate::kAvg;
    }
    if (!node->count_star) node->args.push_back(Scalar(*fn.args[0]));
    return node;
  }

  CompiledExpr* out_;
  std::span<const ScanBinding> bindings_;
};

CompiledExpr::CompiledExpr() = default;
CompiledExpr::~CompiledExpr() = default;
CompiledExpr::CompiledExpr(CompiledExpr&&) noexcept = default;
CompiledExpr& CompiledExpr::operator=(CompiledExpr&&) noexcept = default;

CompiledExpr CompiledExpr::Compile(const Expr& expr, std::span<const ScanBinding> bindings) {
  CompiledExpr out;
  out.root_ = Compiler(&out, bindings).Scalar(expr);
  return out;
}

CompiledExpr CompiledExpr::CompilePredicate(const Expr* expr,
                                            std::span<const ScanBinding> bindings) {
  if (expr == nullptr) return CompiledExpr();
  CompiledExpr out = Compile(*expr, bindings);
  const Node& root = *out.root_;
  if (root.op == Op::kBetween && root.args[0]->op == Op::kColumn) {
    const Node& column = *root.args[0];
    const Value& lo = root.args[1]->value;
    const Value& hi = root.args[2]->value;
    if (root.args[1]->op == Op::kLiteral && root.args[2]->op == Op::kLiteral && lo.is_int() &&
        hi.is_int()) {
      out.int_range_ = IntRange{column.table,    column.binding, column.column,
                                lo.int_value(), hi.int_value(), root.negated};
    }
  }
  return out;
}

CompiledExpr CompiledExpr::CompileGrouped(const Expr& expr,
                                          std::span<const ScanBinding> bindings) {
  CompiledExpr out;
  out.root_ = Compiler(&out, bindings).Grouped(expr);
  return out;
}

Result<const Value*> CompiledExpr::Eval(const size_t* rows) const {
  Status error;
  const Value* v = EvalNode(*root_, Frame{rows, nullptr}, &error);
  if (v == nullptr) return error;
  return v;
}

Result<bool> CompiledExpr::Test(const size_t* rows) const {
  if (root_ == nullptr) return true;
  if (int_range_) {
    // The BETWEEN node's own result for an integer cell, read in place.
    const IntRange& range = *int_range_;
    const Value& cell = range.table->At(rows[range.binding], range.column);
    if (cell.is_int()) {
      const int64_t x = cell.int_value();
      return (range.lo <= x && x <= range.hi) != range.negated;
    }
  }
  Status error;
  const Value* v = EvalNode(*root_, Frame{rows, nullptr}, &error);
  if (v == nullptr) return error;
  if (v->is_null()) return false;
  if (!v->is_boolean()) return Status::TypeError("WHERE predicate is not boolean");
  return v->boolean();
}

Result<const Value*> CompiledExpr::EvalGroup(const GroupRows& group) const {
  Status error;
  const Value* v = EvalNode(*root_, Frame{nullptr, &group}, &error);
  if (v == nullptr) return error;
  return v;
}

// Evaluates one node: a pointer to its value (a stored cell, a literal or
// the node's own result slot), or null with *error set. A child's value
// stays valid while its siblings evaluate, because their subtrees are
// disjoint.
const Value* CompiledExpr::EvalNode(const Node& node, const Frame& frame, Status* error) {
  auto eval = [&](size_t i) { return EvalNode(*node.args[i], frame, error); };
  auto store = [&](Result<Value> result) -> const Value* {
    if (!result.ok()) {
      *error = result.status();
      return nullptr;
    }
    node.value = std::move(result).ValueOrDie();
    return &node.value;
  };
  auto unwrap = [&](Result<int> result) -> std::optional<int> {
    if (!result.ok()) {
      *error = result.status();
      return std::nullopt;
    }
    return *result;
  };
  switch (node.op) {
    case Op::kLiteral:
      return &node.value;
    case Op::kColumn:
      return &node.table->At(frame.rows[node.binding], node.column);
    case Op::kFail:
      *error = node.status;
      return nullptr;
    case Op::kFailAfterArgs:
      for (size_t i = 0; i < node.args.size(); ++i) {
        if (eval(i) == nullptr) return nullptr;
      }
      *error = node.status;
      return nullptr;
    case Op::kUnary: {
      const Value* v = eval(0);
      return v == nullptr ? nullptr : store(ApplyUnary(node.unary_op, *v));
    }
    case Op::kLogical:
    case Op::kBinary: {
      const Value* left = eval(0);
      if (left == nullptr) return nullptr;
      const Value* right = eval(1);
      if (right == nullptr) return nullptr;
      return store(node.op == Op::kLogical ? ApplyLogical(node.binary_op, *left, *right)
                                           : ApplyBinary(node.binary_op, *left, *right));
    }
    case Op::kFunction:
      for (size_t i = 0; i < node.args.size(); ++i) {
        node.arg_values[i] = eval(i);
        if (node.arg_values[i] == nullptr) return nullptr;
      }
      return store(ApplyScalarFn(node.fn, node.name, node.arg_values));
    case Op::kToDate: {
      const Value* text = eval(0);
      if (text == nullptr) return nullptr;
      Result<Value> date = ToDate(*text, *node.date_format);
      return store(node.try_convert ? NullOnConversionError(std::move(date)) : std::move(date));
    }
    case Op::kCast: {
      const Value* v = eval(0);
      if (v == nullptr) return nullptr;
      Result<Value> cast = types::CastValue(*v, node.cast_target);
      return store(node.try_convert ? NullOnConversionError(std::move(cast)) : std::move(cast));
    }
    case Op::kCase: {
      // args: [operand] (when, then)* [else]. Only the branch taken runs.
      const Value* operand = nullptr;
      size_t i = 0;
      if (node.has_operand) {
        operand = eval(i++);
        if (operand == nullptr) return nullptr;
      }
      const size_t whens_end = node.args.size() - (node.has_else ? 1 : 0);
      for (; i < whens_end; i += 2) {
        const Value* when = eval(i);
        if (when == nullptr) return nullptr;
        bool matched = false;
        if (operand != nullptr) {
          if (!operand->is_null() && !when->is_null()) {
            std::optional<int> cmp = unwrap(CompareValues(*operand, *when));
            if (!cmp) return nullptr;
            matched = *cmp == 0;
          }
        } else {
          matched = when->is_boolean() && when->boolean();
        }
        if (matched) return eval(i + 1);
      }
      return node.has_else ? eval(whens_end) : &kNull;
    }
    case Op::kIsNull: {
      const Value* v = eval(0);
      if (v == nullptr) return nullptr;
      return BooleanValue(v->is_null() != node.negated);
    }
    case Op::kInList: {
      const Value* v = eval(0);
      if (v == nullptr) return nullptr;
      if (v->is_null()) return &kNull;
      bool any_null = false;
      bool found = false;
      for (size_t i = 1; i < node.args.size() && !found; ++i) {
        const Value* item = eval(i);
        if (item == nullptr) return nullptr;
        if (item->is_null()) {
          any_null = true;
          continue;
        }
        std::optional<int> cmp = unwrap(CompareValues(*v, *item));
        if (!cmp) return nullptr;
        found = *cmp == 0;
      }
      if (!found && any_null) return &kNull;
      return BooleanValue(found != node.negated);
    }
    case Op::kBetween: {
      const Value* v = eval(0);
      if (v == nullptr) return nullptr;
      const Value* lo = eval(1);
      if (lo == nullptr) return nullptr;
      const Value* hi = eval(2);
      if (hi == nullptr) return nullptr;
      if (v->is_null() || lo->is_null() || hi->is_null()) return &kNull;
      std::optional<int> cl = unwrap(CompareValues(*v, *lo));
      if (!cl) return nullptr;
      std::optional<int> ch = unwrap(CompareValues(*v, *hi));
      if (!ch) return nullptr;
      const bool inside = *cl >= 0 && *ch <= 0;
      return BooleanValue(inside != node.negated);
    }
    case Op::kAggregate:
      return EvalAggregate(node, frame, error);
    case Op::kFirstRow: {
      const GroupRows& group = *frame.group;
      if (group.empty()) return &kNull;
      return EvalNode(*node.args[0], Frame{group[0].data(), frame.group}, error);
    }
  }
  *error = Status::Internal("unknown compiled expression node");
  return nullptr;
}

const Value* CompiledExpr::EvalAggregate(const Node& node, const Frame& frame,
                                         Status* error) {
  std::vector<Value> inputs;
  size_t count = 0;
  std::set<types::Row, RowLess> distinct_seen;
  for (const std::vector<size_t>& combined : *frame.group) {
    if (node.count_star) {
      ++count;
      continue;
    }
    const Value* v = EvalNode(*node.args[0], Frame{combined.data(), frame.group}, error);
    if (v == nullptr) return nullptr;
    if (v->is_null()) continue;  // aggregates skip NULLs
    if (node.distinct && !distinct_seen.insert(types::Row{*v}).second) continue;
    ++count;
    if (node.aggregate != Aggregate::kCount) inputs.push_back(*v);
  }
  if (node.aggregate == Aggregate::kCount) {
    node.value = Value::Int(static_cast<int64_t>(count));
    return &node.value;
  }
  if (inputs.empty()) return &kNull;
  if (node.aggregate == Aggregate::kMin || node.aggregate == Aggregate::kMax) {
    const bool want_max = node.aggregate == Aggregate::kMax;
    const Value* best = &inputs[0];
    for (size_t i = 1; i < inputs.size(); ++i) {
      int c = inputs[i].Compare(*best);
      if ((want_max && c > 0) || (!want_max && c < 0)) best = &inputs[i];
    }
    node.value = *best;
    return &node.value;
  }
  // SUM / AVG. An all-integer SUM is exact, so wrapping past INT64 is an
  // overflow error, as in `+`; the double total serves AVG and mixed sums.
  double total = 0;
  bool all_int = true;
  bool int_overflow = false;
  int64_t int_total = 0;
  for (const Value& v : inputs) {
    if (v.is_int()) {
      int_overflow |= __builtin_add_overflow(int_total, v.int_value(), &int_total);
      total += static_cast<double>(v.int_value());
    } else if (v.is_float()) {
      all_int = false;
      total += v.float_value();
    } else if (v.is_decimal()) {
      all_int = false;
      total += v.decimal_value().ToDouble();
    } else {
      *error = Status::TypeError(node.name + " over non-numeric values");
      return nullptr;
    }
  }
  if (node.aggregate == Aggregate::kSum) {
    if (all_int && int_overflow) {
      *error = Status::ConversionError("integer overflow");
      return nullptr;
    }
    node.value = all_int ? Value::Int(int_total) : Value::Float(total);
  } else {
    node.value = Value::Float(total / static_cast<double>(inputs.size()));
  }
  return &node.value;
}

}  // namespace hyperq::cdw
