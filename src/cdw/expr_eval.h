#pragma once

#include <span>
#include <string>

#include "common/result.h"
#include "sql/ast.h"
#include "types/date.h"
#include "types/value.h"

/// \file expr_eval.h
/// Expression semantics of the *CDW* dialect: legacy-only constructs (CAST
/// ... FORMAT, ZEROIFNULL, '**', :placeholders) are rejected — running them
/// requires the Hyper-Q transpiler first, which is the point of the paper.
///
/// These are the value-level operations over already-evaluated operands.
/// Statements reach them through the compiler (compiled_expr.h), which owns
/// column resolution and evaluation order. A conversion failure (e.g.
/// TO_DATE on a malformed string) returns ConversionError, and the executor
/// turns any error into a whole-statement abort (set-oriented semantics).

namespace hyperq::cdw {

/// True for COUNT/SUM/MIN/MAX/AVG.
bool IsAggregateFunction(std::string_view name);

/// The scalar functions, resolved from their name once per statement.
enum class ScalarFn : uint8_t {
  kTrim,
  kLtrim,
  kRtrim,
  kUpper,
  kLower,
  kLength,
  kSubstr,
  kPosition,
  kCoalesce,
  kNullif,
  kAbs,
  kRound,
  kFloor,
  kCeil,
  kPower,
  kMod,
  kToDate,
  kToTimestamp,
  kTryToDate,       ///< TO_DATE with a ConversionError read as NULL
  kTryToTimestamp,  ///< TO_TIMESTAMP with a ConversionError read as NULL
  kExtract,
  kAddMonths,
  kLastDay,
  kToChar,
  kUnknown,  ///< fails with "unknown function" once its arguments are evaluated
};

/// Case-insensitive name lookup; kUnknown when the CDW has no such function.
ScalarFn LookupScalarFn(std::string_view name);

/// True for the legacy-only functions (ZEROIFNULL, NULLIFZERO, INDEX,
/// CHARACTERS) that must be transpiled away before the CDW sees them.
bool IsLegacyFunction(std::string_view name);

/// The Status a call of aggregate `name` returns in a scalar context.
common::Status AggregateInScalarContext(const std::string& name);
/// The Status a call of legacy function `name` returns.
common::Status LegacyFunctionCall(const std::string& name);

/// Applies scalar function `fn` (spelled `name`, for messages) to evaluated
/// arguments, which may point at stored cells or literals.
common::Result<types::Value> ApplyScalarFn(ScalarFn fn, const std::string& name,
                                           std::span<const types::Value* const> args);

/// TO_DATE with a format parsed once (see types::DateFormat).
common::Result<types::Value> ToDate(const types::Value& text, const types::DateFormat& format);

/// The TRY_ forms (TRY_CAST, TRY_TO_DATE, TRY_TO_TIMESTAMP): a
/// ConversionError of the plain form becomes NULL; every other Status stays.
common::Result<types::Value> NullOnConversionError(common::Result<types::Value> result);

/// NOT and unary minus.
common::Result<types::Value> ApplyUnary(sql::UnaryOp op, const types::Value& v);

/// AND / OR in three-valued logic.
common::Result<types::Value> ApplyLogical(sql::BinaryOp op, const types::Value& left,
                                          const types::Value& right);

/// Arithmetic, || and the comparisons (LIKE included); not AND, OR or '**'.
common::Result<types::Value> ApplyBinary(sql::BinaryOp op, const types::Value& left,
                                         const types::Value& right);

/// The Status of the legacy '**' operator.
common::Status LegacyPowerOperator();
/// The Status of a legacy CAST ... FORMAT.
common::Status LegacyFormatCast();
/// The Status of a :placeholder reaching the CDW.
common::Status PlaceholderInCdw();

/// Three-way comparison with the dialect's implicit coercions (strings parse
/// toward the other side's family); both sides non-NULL.
common::Result<int> CompareValues(const types::Value& a, const types::Value& b);

/// True if the expression tree contains an aggregate call.
bool ContainsAggregate(const sql::Expr& expr);

/// SQL LIKE with % and _ wildcards.
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace hyperq::cdw
