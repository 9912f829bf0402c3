#ifndef SLIM_DOC_SPREADSHEET_FORMULA_H_
#define SLIM_DOC_SPREADSHEET_FORMULA_H_

/// \file formula.h
/// \brief Formula language for the spreadsheet substrate.
///
/// Supports the core of the spreadsheet expression language: numeric, string
/// and boolean literals; cell and range references (optionally
/// sheet-qualified, `Sheet2!B3:C9`); arithmetic `+ - * / ^`, unary `-`,
/// string concatenation `&`, comparisons `= <> < <= > >=`; and a standard
/// function library: aggregates (SUM, AVERAGE, MIN, MAX, COUNT, COUNTA,
/// SUMIF, COUNTIF), logic (IF, AND, OR, NOT), lookup (VLOOKUP, INDEX,
/// MATCH), numeric (ABS, ROUND, SQRT), and text (CONCAT, LEN, UPPER,
/// LOWER, MID, LEFT, RIGHT, FIND, SUBSTITUTE, TRIM).

#include <memory>
#include <string>
#include <vector>

#include "doc/spreadsheet/a1.h"
#include "doc/spreadsheet/cell.h"
#include "util/result.h"

namespace slim::doc {

/// \brief Binary operators of the formula language.
enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kPow, kConcat,
  kEq, kNe, kLt, kLe, kGt, kGe,
};

/// \brief AST node kinds.
enum class ExprKind {
  kNumber, kString, kBool, kCellRef, kRangeRef, kUnaryMinus, kBinary, kCall,
};

/// \brief A formula AST node.
struct Expr {
  ExprKind kind;

  // kNumber / kString / kBool payloads.
  double number = 0;
  std::string text;
  bool boolean = false;

  // kCellRef / kRangeRef payloads; `sheet` empty means the current sheet.
  std::string sheet;
  CellRef cell;
  RangeRef range;

  // kUnaryMinus / kBinary payloads.
  BinaryOp op = BinaryOp::kAdd;
  std::unique_ptr<Expr> lhs;
  std::unique_ptr<Expr> rhs;

  // kCall payload.
  std::string callee;  // upper-cased function name
  std::vector<std::unique_ptr<Expr>> args;
};

/// Deepest formula ParseFormula accepts, counted two ways: parser nesting
/// (parentheses, call arguments, unary signs, `^` right operands) and the
/// depth of the returned tree, which also grows by one per operand of a
/// left-associative chain (a lone literal has depth 1). Every walker of
/// the tree (evaluate, format, collect references, destroy) recurses on
/// its depth, so this bound keeps them all off the end of the stack.
inline constexpr size_t kMaxFormulaDepth = 1000;

/// \brief Parses formula source text. `source` must NOT include the leading
/// '=' (the worksheet strips it). A formula deeper than kMaxFormulaDepth
/// is a ParseError naming the position.
Result<std::unique_ptr<Expr>> ParseFormula(std::string_view source);

/// \brief Serializes an AST back to formula text (canonical spacing).
std::string FormatFormula(const Expr& expr);

/// \brief Supplies cell/range values to the evaluator.
///
/// The worksheet/workbook implements this; the evaluator stays independent
/// of storage and of recalculation policy (cycle detection lives in the
/// resolver, which returns CellError::kCycle values on re-entry).
class CellResolver {
 public:
  virtual ~CellResolver() = default;

  /// Value of one cell. `sheet` empty means the formula's own sheet.
  virtual CellValue ResolveCell(const std::string& sheet,
                                const CellRef& ref) = 0;

  /// Values of every cell in a range, row-major; blanks included.
  virtual std::vector<CellValue> ResolveRange(const std::string& sheet,
                                              const RangeRef& range) = 0;
};

/// \brief Evaluates a parsed formula. Errors propagate as CellError values
/// (spreadsheet semantics), not Statuses: a formula always evaluates to a
/// CellValue.
CellValue EvaluateFormula(const Expr& expr, CellResolver* resolver);

/// \brief Collects every cell the formula reads (ranges expanded to their
/// corner form, not enumerated). Used for dependency analysis.
struct FormulaRef {
  std::string sheet;  // empty == own sheet
  RangeRef range;     // single cells become 1x1 ranges
};
std::vector<FormulaRef> CollectReferences(const Expr& expr);

}  // namespace slim::doc

#endif  // SLIM_DOC_SPREADSHEET_FORMULA_H_
