#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "types/value.h"

/// \file compiled_expr.h
/// Statement-level expression compilation for the embedded CDW. A statement
/// compiles each of its expressions once, against the ordered tables it will
/// scan, and then evaluates it at every combined row it visits:
///   - a column reference becomes a (binding, column) slot read in place;
///   - a function name becomes a ScalarFn, so no row compares names;
///   - a literal is held once and read by reference, and TO_DATE with a
///     literal format parses that format once.
/// Nothing fails at compile time. An unresolvable or ambiguous column, a
/// legacy construct or an unknown function compiles to a node that returns
/// its Status when a row first evaluates it, so a statement that evaluates
/// no row succeeds. AND and OR evaluate both sides, left first; CASE
/// evaluates only up to the branch it takes; function arguments are
/// evaluated left to right before the function is applied. DESIGN.md
/// "Embedded CDW: compiled expressions" has the full rules and the golden
/// table that pins them.

namespace hyperq::cdw {

class Table;

/// One table a statement scans, visible to column references under `alias`.
struct ScanBinding {
  std::string alias;  ///< table alias or table name
  const Table* table;
};

/// The index tuples (one row index per binding) of one GROUP BY group.
using GroupRows = std::vector<std::vector<size_t>>;

/// A compiled expression. It evaluates at a combined row given as one row
/// index per binding, in the order the bindings were compiled against.
/// Evaluation keeps its last result in the compiled nodes, so an instance is
/// used by one statement on one thread; the returned pointer is valid until
/// the same expression is evaluated again or the scanned tables change.
class CompiledExpr {
 public:
  /// The absent expression: as a predicate it is always true.
  CompiledExpr();
  ~CompiledExpr();
  CompiledExpr(CompiledExpr&&) noexcept;
  CompiledExpr& operator=(CompiledExpr&&) noexcept;

  /// Compiles a scalar expression against `bindings`.
  static CompiledExpr Compile(const sql::Expr& expr, std::span<const ScanBinding> bindings);

  /// Compiles a WHERE/ON predicate; a null `expr` is the absent predicate.
  static CompiledExpr CompilePredicate(const sql::Expr* expr,
                                       std::span<const ScanBinding> bindings);

  /// Compiles a select item or HAVING of an aggregating SELECT, evaluated
  /// once per group with EvalGroup: aggregate calls fold the group's rows,
  /// and a subexpression without aggregates reads the group's first row
  /// (NULL for an empty group).
  static CompiledExpr CompileGrouped(const sql::Expr& expr,
                                     std::span<const ScanBinding> bindings);

  /// The value at combined row `rows`.
  common::Result<const types::Value*> Eval(const size_t* rows) const;

  /// WHERE/ON semantics at combined row `rows`: NULL is false, a non-boolean
  /// value is a TypeError, and the absent predicate is true.
  common::Result<bool> Test(const size_t* rows) const;

  /// The value of a CompileGrouped expression over one group.
  common::Result<const types::Value*> EvalGroup(const GroupRows& group) const;

 private:
  struct Node;
  struct Frame;
  class Compiler;

  static const types::Value* EvalNode(const Node& node, const Frame& frame,
                                      common::Status* error);
  static const types::Value* EvalAggregate(const Node& node, const Frame& frame,
                                           common::Status* error);

  /// A predicate of the form `column [NOT] BETWEEN int AND int`: the
  /// HQ_ROWNUM range every §7 statement carries. Test decides it directly
  /// on an integer cell and evaluates the node tree for any other cell.
  struct IntRange {
    const Table* table;
    size_t binding;
    size_t column;
    int64_t lo;
    int64_t hi;
    bool negated;
  };

  std::vector<std::unique_ptr<Node>> nodes_;
  const Node* root_ = nullptr;
  std::optional<IntRange> int_range_;
};

}  // namespace hyperq::cdw
