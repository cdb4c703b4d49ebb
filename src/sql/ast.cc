#include "sql/ast.h"

namespace hyperq::sql {

using common::Result;
using common::Status;

Result<ExprPtr> MapChildren(const Expr& expr,
                            const std::function<Result<ExprPtr>(const Expr&)>& rewrite) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
    case ExprKind::kPlaceholder:
    case ExprKind::kStar:
      return expr.Clone();
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      HQ_ASSIGN_OR_RETURN(ExprPtr operand, rewrite(*u.operand));
      return ExprPtr(std::make_unique<UnaryExpr>(u.op, std::move(operand)));
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      HQ_ASSIGN_OR_RETURN(ExprPtr left, rewrite(*b.left));
      HQ_ASSIGN_OR_RETURN(ExprPtr right, rewrite(*b.right));
      return ExprPtr(std::make_unique<BinaryExpr>(b.op, std::move(left), std::move(right)));
    }
    case ExprKind::kFunction: {
      const auto& fn = static_cast<const FunctionExpr&>(expr);
      auto copy = std::make_unique<FunctionExpr>();
      copy->name = fn.name;
      copy->distinct = fn.distinct;
      for (const auto& a : fn.args) {
        HQ_ASSIGN_OR_RETURN(ExprPtr e, rewrite(*a));
        copy->args.push_back(std::move(e));
      }
      return ExprPtr(std::move(copy));
    }
    case ExprKind::kCast: {
      const auto& cast = static_cast<const CastExpr&>(expr);
      HQ_ASSIGN_OR_RETURN(ExprPtr operand, rewrite(*cast.operand));
      return ExprPtr(std::make_unique<CastExpr>(std::move(operand), cast.target, cast.format,
                                                cast.try_cast));
    }
    case ExprKind::kCase: {
      const auto& c = static_cast<const CaseExpr&>(expr);
      auto copy = std::make_unique<CaseExpr>();
      if (c.operand) {
        HQ_ASSIGN_OR_RETURN(copy->operand, rewrite(*c.operand));
      }
      for (const auto& [when, then] : c.whens) {
        HQ_ASSIGN_OR_RETURN(ExprPtr w, rewrite(*when));
        HQ_ASSIGN_OR_RETURN(ExprPtr t, rewrite(*then));
        copy->whens.emplace_back(std::move(w), std::move(t));
      }
      if (c.else_expr) {
        HQ_ASSIGN_OR_RETURN(copy->else_expr, rewrite(*c.else_expr));
      }
      return ExprPtr(std::move(copy));
    }
    case ExprKind::kIsNull: {
      const auto& isn = static_cast<const IsNullExpr&>(expr);
      HQ_ASSIGN_OR_RETURN(ExprPtr operand, rewrite(*isn.operand));
      return ExprPtr(std::make_unique<IsNullExpr>(std::move(operand), isn.negated));
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      auto copy = std::make_unique<InListExpr>();
      HQ_ASSIGN_OR_RETURN(copy->operand, rewrite(*in.operand));
      for (const auto& e : in.list) {
        HQ_ASSIGN_OR_RETURN(ExprPtr item, rewrite(*e));
        copy->list.push_back(std::move(item));
      }
      copy->negated = in.negated;
      return ExprPtr(std::move(copy));
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(expr);
      auto copy = std::make_unique<BetweenExpr>();
      HQ_ASSIGN_OR_RETURN(copy->operand, rewrite(*bt.operand));
      HQ_ASSIGN_OR_RETURN(copy->low, rewrite(*bt.low));
      HQ_ASSIGN_OR_RETURN(copy->high, rewrite(*bt.high));
      copy->negated = bt.negated;
      return ExprPtr(std::move(copy));
    }
  }
  return Status::Internal("unknown expression kind");
}

}  // namespace hyperq::sql
