// Recursive-descent parser for the C subset + OpenMP pragmas.
//
// Produces a Clang-shaped AST (see ast.hpp for child layouts and for the
// storage and lifetime contract). Identifier references are resolved
// against lexical scopes during parsing, so DeclRefExpr nodes carry their
// defining declaration (the basis for ParaGraph's `Ref` edges). Calls to
// unknown functions (math builtins like `sqrt`) produce DeclRefExpr nodes
// with a null referenced decl. After parsing, DeclRefExpr nodes read as
// rvalues are wrapped in ImplicitCastExpr (LValueToRValue), mirroring
// Clang's AST shape in the paper's Figure 2.
//
// OpenMP support: a `#pragma omp ...` line followed by a for-statement
// becomes an Omp*Directive node whose children are the clause nodes followed
// by the loop. Supported directives are exactly the ones the paper's variant
// generator emits:
//   omp parallel for [collapse(n)] [num_threads(e)] [schedule(...)]
//                    [reduction(op:list)] [private/shared/firstprivate(list)]
//   omp target teams distribute parallel for [collapse(n)] [num_teams(e)]
//                    [thread_limit(e)] [map(dir:list)] [reduction(op:list)]
#pragma once

#include <memory>
#include <string_view>

#include "frontend/ast.hpp"
#include "frontend/diagnostics.hpp"

namespace pg::frontend {

/// Deepest nesting parse_source accepts. Each statement, prefix unary
/// operator, cast, parenthesised expression, assignment right-hand side and
/// conditional operator opens one level, and so does each further operator
/// of a left-associative chain (binary operators, commas, subscripts, calls,
/// postfix ++/--). One level more is an error diagnostic at the token that
/// opens it. The bound keeps the parser's recursion, and every recursive
/// walk of the AST it returns, within a small stack.
inline constexpr int kMaxNestingDepth = 256;

/// Result of a parse: the context owns all nodes and the source copy they
/// view; `root` is the TranslationUnit (nullptr when parsing failed).
struct ParseResult {
  std::unique_ptr<AstContext> context;
  Diagnostics diagnostics;

  [[nodiscard]] AstNode* root() const {
    return context == nullptr ? nullptr : context->root();
  }
  [[nodiscard]] bool ok() const {
    return root() != nullptr && !diagnostics.has_errors();
  }
};

/// Parses a full translation unit. The result does not refer to `source`.
ParseResult parse_source(std::string_view source);

}  // namespace pg::frontend
