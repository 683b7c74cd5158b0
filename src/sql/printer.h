// AST -> SQL text rendering.
//
// Printing is canonical: keywords uppercase, identifiers as stored (the
// normalizer lowercases them), minimal parentheses driven by operator
// precedence. Round-tripping Parse(Print(ast)) yields an equal AST, which
// the test-suite checks property-style.
//
// Each entry point walks the tree once, appending every node into one
// output string, so a print costs one growing buffer rather than one
// string per node (a left-deep AND chain no longer re-copies its prefix
// at every level).
#ifndef LOGR_SQL_PRINTER_H_
#define LOGR_SQL_PRINTER_H_

#include <string>

#include "sql/ast.h"

namespace logr::sql {

/// Renders an expression.
std::string PrintExpr(const Expr& e);

/// Renders one SELECT block.
std::string PrintSelect(const SelectStmt& s);

/// Renders a full (possibly UNION'ed) statement.
std::string PrintStatement(const Statement& s);

}  // namespace logr::sql

#endif  // LOGR_SQL_PRINTER_H_
