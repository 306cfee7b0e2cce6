// Frontend edge cases: C constructs at the boundary of the supported
// subset, error recovery, and the exact tree shapes downstream passes
// depend on.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "frontend/ast_dump.hpp"
#include "frontend/const_eval.hpp"
#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "sim/kernel_profile.hpp"

namespace pg::frontend {
namespace {

ParseResult ok(std::string_view source) {
  auto r = parse_source(source);
  EXPECT_TRUE(r.ok()) << r.diagnostics.summary();
  return r;
}

std::size_t count_kind(const AstNode* root, NodeKind kind) {
  std::size_t n = 0;
  walk(root, [&](const AstNode* node, int) {
    n += node->is(kind);
    return true;
  });
  return n;
}

TEST(FrontendEdge, CastExpression) {
  auto r = ok("double g(int a) { return (double)a / 2; }");
  EXPECT_GE(count_kind(r.root(), NodeKind::kImplicitCastExpr), 1u);
}

TEST(FrontendEdge, SizeofType) {
  auto r = ok("int g(void) { return sizeof(double); }");
  const AstNode* ret = nullptr;
  walk(r.root(), [&](const AstNode* n, int) {
    if (ret == nullptr && n->is(NodeKind::kReturnStmt)) ret = n;
    return ret == nullptr;
  });
  ASSERT_NE(ret, nullptr);
  EXPECT_EQ(evaluate_integer_constant(ret->child(0)), 8);
}

TEST(FrontendEdge, SizeofExpression) {
  auto r = ok("int g(void) { int x; return sizeof(x); }");
  EXPECT_EQ(count_kind(r.root(), NodeKind::kUnaryOperator), 1u);
}

TEST(FrontendEdge, CommaExpression) {
  auto r = ok("void f(void) { int a; int b; a = 1, b = 2; }");
  bool found_comma = false;
  walk(r.root(), [&](const AstNode* n, int) {
    if (n->is(NodeKind::kBinaryOperator) && n->text() == ",") found_comma = true;
    return true;
  });
  EXPECT_TRUE(found_comma);
}

TEST(FrontendEdge, NestedConditional) {
  auto r = ok("int g(int x) { return x > 2 ? 1 : x > 1 ? 2 : 3; }");
  EXPECT_EQ(count_kind(r.root(), NodeKind::kConditionalOperator), 2u);
}

TEST(FrontendEdge, InitListInitializer) {
  auto r = ok("void f(void) { double v[3] = {1.0, 2.0, 3.0}; }");
  EXPECT_EQ(count_kind(r.root(), NodeKind::kInitListExpr), 1u);
}

TEST(FrontendEdge, ForWithCommaIncrement) {
  auto r = ok("void f(void) { int j; for (int i = 0; i < 4; i++, j++) {} }");
  EXPECT_EQ(count_kind(r.root(), NodeKind::kForStmt), 1u);
}

TEST(FrontendEdge, DanglingElseBindsToInnerIf) {
  auto r = ok("void f(int a, int b) { if (a > 0) if (b > 0) b = 1; else b = 2; }");
  const AstNode* outer = nullptr;
  walk(r.root(), [&](const AstNode* n, int) {
    if (outer == nullptr && n->is(NodeKind::kIfStmt)) outer = n;
    return outer == nullptr;
  });
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->num_children(), 2u);  // outer if has NO else
  EXPECT_EQ(outer->if_then()->num_children(), 3u);  // inner if owns the else
}

TEST(FrontendEdge, UnaryMinusPrecedence) {
  auto r = ok("int g(void) { return -2 * 3; }");
  const AstNode* ret = nullptr;
  walk(r.root(), [&](const AstNode* n, int) {
    if (ret == nullptr && n->is(NodeKind::kReturnStmt)) ret = n;
    return ret == nullptr;
  });
  EXPECT_EQ(ret->child(0)->text(), "*");
  EXPECT_EQ(evaluate_integer_constant(ret->child(0)), -6);
}

TEST(FrontendEdge, LogicalOperatorsShortCircuitShape) {
  auto r = ok("int g(int a, int b) { return a > 0 && b > 0 || a < -1; }");
  const AstNode* ret = nullptr;
  walk(r.root(), [&](const AstNode* n, int) {
    if (ret == nullptr && n->is(NodeKind::kReturnStmt)) ret = n;
    return ret == nullptr;
  });
  EXPECT_EQ(ret->child(0)->text(), "||");  // || binds looser than &&
}

TEST(FrontendEdge, GlobalArrayExtentFromExpression) {
  auto r = ok("double grid[1 << 4];");
  const AstNode* var = nullptr;
  walk(r.root(), [&](const AstNode* n, int) {
    if (var == nullptr && n->is(NodeKind::kVarDecl)) var = n;
    return var == nullptr;
  });
  ASSERT_NE(var, nullptr);
  // Non-literal extents fold to kUnknownExtent at parse time (documented);
  // the dataset generator always substitutes plain literals.
  ASSERT_EQ(var->type().array_extents.size(), 1u);
}

TEST(FrontendEdge, ForwardDeclarationThenCall) {
  auto r = ok(R"(
    double helper(double x);
    double g(double y) { return helper(y); }
  )");
  const AstNode* call = nullptr;
  walk(r.root(), [&](const AstNode* n, int) {
    if (call == nullptr && n->is(NodeKind::kCallExpr)) call = n;
    return call == nullptr;
  });
  ASSERT_NE(call, nullptr);
  EXPECT_NE(call->child(0)->referenced_decl(), nullptr);
}

TEST(FrontendEdge, WhileConditionWithSideEffect) {
  auto r = ok("void f(int n) { while (n-- > 0) {} }");
  EXPECT_EQ(count_kind(r.root(), NodeKind::kWhileStmt), 1u);
}

TEST(FrontendEdge, DeeplyNestedParens) {
  auto r = ok("int g(void) { return ((((1)))); }");
  EXPECT_EQ(count_kind(r.root(), NodeKind::kParenExpr), 4u);
}

TEST(FrontendEdge, LongLongAndUnsignedTypes) {
  auto r = ok("void f(void) { unsigned long a = 1; long long b = 2; unsigned c = 3; }");
  std::size_t decls = count_kind(r.root(), NodeKind::kVarDecl);
  EXPECT_EQ(decls, 3u);
}

TEST(FrontendEdge, ErrorRecoveryReportsFirstProblem) {
  auto r = parse_source("void f(void) { int x = (; }");
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.diagnostics.entries().empty());
}

TEST(FrontendEdge, EmptyTranslationUnitIsValid) {
  auto r = ok("");
  EXPECT_EQ(r.root()->num_children(), 0u);
}

TEST(FrontendEdge, PragmaInsideNestedBlock) {
  auto r = ok(R"(
    double v[64];
    void f(void) {
      {
        #pragma omp parallel for num_threads(4)
        for (int i = 0; i < 64; i++) v[i] = 0.0;
      }
    }
  )");
  EXPECT_EQ(count_kind(r.root(), NodeKind::kOmpParallelForDirective), 1u);
}

TEST(FrontendEdge, TwoKernelsInOneUnit) {
  auto r = ok(R"(
    double a[32];
    void k1(void) {
      #pragma omp parallel for num_threads(2)
      for (int i = 0; i < 32; i++) a[i] = 0.0;
    }
    void k2(void) {
      #pragma omp parallel for num_threads(4)
      for (int i = 0; i < 32; i++) a[i] = 1.0;
    }
  )");
  EXPECT_EQ(count_kind(r.root(), NodeKind::kOmpParallelForDirective), 2u);
  EXPECT_EQ(count_kind(r.root(), NodeKind::kFunctionDecl), 2u);
}

// --- nesting limit ----------------------------------------------------------
//
// Each construct below nests one level per repetition. A statement is a
// level too, so inside a `return` or an expression statement the limit
// leaves room for kMaxNestingDepth - 1 repetitions; nested blocks sit inside
// the function body, which is not a statement, and get kMaxNestingDepth.

std::string repeat(std::string_view unit, int n) {
  std::string out;
  out.reserve(unit.size() * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out += unit;
  return out;
}

std::string nested_parens(int n) {
  return "int f(void) { return " + repeat("(", n) + "1" + repeat(")", n) + "; }";
}
std::string nested_braces(int n) {
  return "void f(void) { " + repeat("{", n) + repeat("}", n) + " }";
}
std::string unary_chain(int n) {
  return "int f(int a) { return " + repeat("- ", n) + "a; }";
}
std::string assignment_chain(int n) {
  return "void f(int a) { " + repeat("a = ", n) + "0; }";
}
std::string else_if_chain(int n) {
  return "void f(int a) { if (a) ;" + repeat(" else if (a) ;", n - 1) + " }";
}

struct NestedCase {
  const char* name;
  std::string (*source)(int);
  int deepest;  // repetitions that still parse
};

const NestedCase kNestedCases[] = {
    {"parentheses", nested_parens, kMaxNestingDepth - 1},
    {"braces", nested_braces, kMaxNestingDepth},
    {"unary chain", unary_chain, kMaxNestingDepth - 1},
    {"assignment chain", assignment_chain, kMaxNestingDepth - 1},
    {"else-if chain", else_if_chain, kMaxNestingDepth - 1},
};

void expect_nesting_error(const ParseResult& r, const std::string& what) {
  EXPECT_FALSE(r.ok()) << what;
  EXPECT_EQ(r.root(), nullptr) << what;
  ASSERT_EQ(r.diagnostics.entries().size(), 1u) << what;
  const Diagnostic& d = r.diagnostics.entries()[0];
  EXPECT_EQ(d.message, "nesting deeper than " + std::to_string(kMaxNestingDepth) + " levels")
      << what;
  EXPECT_TRUE(d.location.valid()) << what;
}

TEST(FrontendEdge, NestingAtTheLimitParsesAndEveryWalkCompletes) {
  for (const NestedCase& c : kNestedCases) {
    const ParseResult r = parse_source(c.source(c.deepest));
    ASSERT_TRUE(r.ok()) << c.name << ": " << r.diagnostics.summary();
    // The recursive consumers of the tree run at its deepest.
    EXPECT_GT(subtree_size(r.root()), static_cast<std::size_t>(c.deepest)) << c.name;
    EXPECT_FALSE(dump_ast(r.root()).empty()) << c.name;
    EXPECT_GT(graph::build_graph(r.root(), {}).num_nodes(), 0u) << c.name;
    (void)sim::profile_kernel(r.root());
  }
}

TEST(FrontendEdge, OneLevelPastTheLimitFailsWithALocatedDiagnostic) {
  for (const NestedCase& c : kNestedCases)
    expect_nesting_error(parse_source(c.source(c.deepest + 1)), c.name);
  // The diagnostic points at the parenthesis that opens the level too many.
  const std::string source = nested_parens(kMaxNestingDepth);
  const ParseResult r = parse_source(source);
  ASSERT_FALSE(r.diagnostics.entries().empty());
  EXPECT_EQ(r.diagnostics.entries()[0].location.offset,
            source.find('(', source.find("return")) + kMaxNestingDepth - 1);
}

TEST(FrontendEdge, HundredThousandLevelsFailCleanly) {
  constexpr int kDeep = 100000;
  for (const NestedCase& c : kNestedCases)
    expect_nesting_error(parse_source(c.source(kDeep)), c.name);
  // Left-associative chains deepen the tree without recursing in the
  // parser; they count against the same limit.
  expect_nesting_error(parse_source("int f(int a) { return a" + repeat(" + a", kDeep) + "; }"),
                       "binary chain");
  expect_nesting_error(parse_source("int f(int a) { return a" + repeat("++", kDeep) + "; }"),
                       "postfix chain");
  expect_nesting_error(parse_source("void f(int a) { a" + repeat(", a", kDeep) + "; }"),
                       "comma chain");
}

TEST(FrontendEdge, LongRunsOfSkippedLinesAndStrayBytesDoNotRecurse) {
  // The lexer steps over skipped directive lines and stray characters in
  // a loop: a long run of either is no deeper than a short one.
  const ParseResult defines =
      parse_source(repeat("#define X 1\n", 100000) + "int f(void) { return 1; }");
  EXPECT_TRUE(defines.ok()) << defines.diagnostics.summary();
  const ParseResult stray = parse_source("int f(void) { return 1; }" + repeat("@", 100000));
  EXPECT_FALSE(stray.ok());
  // 100,000 stray bytes: the first kMaxErrors diagnostics plus one that
  // says the rest were dropped.
  ASSERT_EQ(stray.diagnostics.entries().size(), Diagnostics::kMaxErrors + 1);
  EXPECT_EQ(stray.diagnostics.entries().back().message,
            "too many errors; stopped reporting them");
}

TEST(FrontendEdge, ArrayRankPastTheInlineLimitIsAnError) {
  const std::string dims = repeat("[2]", static_cast<int>(ArrayExtents::kMaxRank));
  auto r = ok("double a" + dims + ";");
  const AstNode* var = nullptr;
  walk(r.root(), [&](const AstNode* n, int) {
    if (var == nullptr && n->is(NodeKind::kVarDecl)) var = n;
    return var == nullptr;
  });
  ASSERT_NE(var, nullptr);
  EXPECT_EQ(var->type().array_extents.size(), ArrayExtents::kMaxRank);
  const ParseResult deeper = parse_source("double a" + dims + "[2];");
  EXPECT_FALSE(deeper.ok());
  ASSERT_EQ(deeper.diagnostics.entries().size(), 1u);
  EXPECT_EQ(deeper.diagnostics.entries()[0].message,
            "array declarator has more than " + std::to_string(ArrayExtents::kMaxRank) +
                " dimensions");
}

}  // namespace
}  // namespace pg::frontend
