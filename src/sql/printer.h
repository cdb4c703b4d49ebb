#pragma once

#include <string>

#include "sql/ast.h"

/// \file printer.h
/// Renders AST back to SQL text. The printer is faithful: it renders exactly
/// the constructs present in the tree, so `Parse(Print(ast))` gives back the
/// same tree, except for three shapes:
///   - a negative integer literal prints as `-5` and reads back as unary
///     minus of `5`, and INT64_MIN cannot be printed as a literal at all;
///   - a DECIMAL literal prints as `12.34` and reads back as FLOAT;
///   - a call spelled `trim(...)` reads back as `TRIM`, because the parser's
///     TRIM form renames it.
/// The PXC prints the *transpiled* tree to obtain the CDW SQL text it sends
/// to the warehouse.

namespace hyperq::sql {

std::string PrintExpr(const Expr& expr);
std::string PrintStatement(const Statement& stmt);

}  // namespace hyperq::sql
