// Tests for the recursive-descent parser: AST shapes, scoping/Ref
// resolution, OpenMP directives, implicit casts, and error reporting.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataset/kernel_spec.hpp"
#include "dataset/variants.hpp"
#include "frontend/ast_dump.hpp"
#include "frontend/parser.hpp"
#include "sim/platform.hpp"
#include "ast_terminals.hpp"
#include "frontend_mutations.hpp"

namespace pg::frontend {
namespace {

ParseResult parse_ok(std::string_view source) {
  ParseResult result = parse_source(source);
  EXPECT_TRUE(result.ok()) << result.diagnostics.summary();
  return result;
}

const AstNode* first_of(const AstNode* root, NodeKind kind) {
  const AstNode* found = nullptr;
  walk(root, [&](const AstNode* n, int) {
    if (found == nullptr && n->is(kind)) found = n;
    return found == nullptr;
  });
  return found;
}

std::size_t count_of(const AstNode* root, NodeKind kind) {
  std::size_t count = 0;
  walk(root, [&](const AstNode* n, int) {
    if (n->is(kind)) ++count;
    return true;
  });
  return count;
}

TEST(Parser, EmptyFunction) {
  auto r = parse_ok("void f(void) {}");
  ASSERT_NE(r.root(), nullptr);
  EXPECT_EQ(r.root()->kind(), NodeKind::kTranslationUnit);
  ASSERT_EQ(r.root()->num_children(), 1u);
  const AstNode* fn = r.root()->child(0);
  EXPECT_EQ(fn->kind(), NodeKind::kFunctionDecl);
  EXPECT_EQ(fn->text(), "f");
  ASSERT_EQ(fn->num_children(), 1u);
  EXPECT_EQ(fn->child(0)->kind(), NodeKind::kCompoundStmt);
}

TEST(Parser, FunctionParametersBecomeParmVarDecls) {
  auto r = parse_ok("double add(double a, int b) { return a + b; }");
  const AstNode* fn = r.root()->child(0);
  ASSERT_EQ(fn->num_children(), 3u);  // 2 params + body
  EXPECT_EQ(fn->child(0)->kind(), NodeKind::kParmVarDecl);
  EXPECT_EQ(fn->child(0)->text(), "a");
  EXPECT_EQ(fn->child(0)->type().base, BaseType::kDouble);
  EXPECT_EQ(fn->child(1)->type().base, BaseType::kInt);
}

TEST(Parser, ForStmtChildOrderMatchesPaperFigure2) {
  // [init, cond, body, inc] — not Clang's [init, cond, inc, body].
  auto r = parse_ok("void f(void) { for (int i = 0; i < 50; i++) {} }");
  const AstNode* loop = first_of(r.root(), NodeKind::kForStmt);
  ASSERT_NE(loop, nullptr);
  ASSERT_EQ(loop->num_children(), 4u);
  EXPECT_EQ(loop->child(0)->kind(), NodeKind::kDeclStmt);
  EXPECT_EQ(loop->child(1)->kind(), NodeKind::kBinaryOperator);
  EXPECT_EQ(loop->child(2)->kind(), NodeKind::kCompoundStmt);
  EXPECT_EQ(loop->child(3)->kind(), NodeKind::kUnaryOperator);
  EXPECT_EQ(loop->for_body()->kind(), NodeKind::kCompoundStmt);
  EXPECT_EQ(loop->for_inc()->text(), "++post");
}

TEST(Parser, EmptyForHeaderPartsBecomeNullStmts) {
  auto r = parse_ok("void f(void) { for (;;) { break; } }");
  const AstNode* loop = first_of(r.root(), NodeKind::kForStmt);
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->for_init()->kind(), NodeKind::kNullStmt);
  EXPECT_EQ(loop->for_cond()->kind(), NodeKind::kNullStmt);
  EXPECT_EQ(loop->for_inc()->kind(), NodeKind::kNullStmt);
}

TEST(Parser, IfWithElse) {
  auto r = parse_ok("void f(int x) { if (x > 0) { x = 1; } else { x = 2; } }");
  const AstNode* node = first_of(r.root(), NodeKind::kIfStmt);
  ASSERT_NE(node, nullptr);
  ASSERT_EQ(node->num_children(), 3u);
  EXPECT_NE(node->if_else(), nullptr);
}

TEST(Parser, IfWithoutElse) {
  auto r = parse_ok("void f(int x) { if (x > 0) x = 1; }");
  const AstNode* node = first_of(r.root(), NodeKind::kIfStmt);
  ASSERT_EQ(node->num_children(), 2u);
  EXPECT_EQ(node->if_else(), nullptr);
}

TEST(Parser, WhileAndDoLoops) {
  auto r = parse_ok("void f(int x) { while (x > 0) { x = x - 1; } do { x++; } while (x < 5); }");
  EXPECT_EQ(count_of(r.root(), NodeKind::kWhileStmt), 1u);
  EXPECT_EQ(count_of(r.root(), NodeKind::kDoStmt), 1u);
}

TEST(Parser, OperatorPrecedenceMulBeforeAdd) {
  auto r = parse_ok("int g(void) { return 1 + 2 * 3; }");
  const AstNode* ret = first_of(r.root(), NodeKind::kReturnStmt);
  const AstNode* add = ret->child(0);
  EXPECT_EQ(add->text(), "+");
  EXPECT_EQ(add->child(1)->text(), "*");
}

TEST(Parser, ParenthesesOverridePrecedence) {
  auto r = parse_ok("int g(void) { return (1 + 2) * 3; }");
  const AstNode* ret = first_of(r.root(), NodeKind::kReturnStmt);
  const AstNode* mul = ret->child(0);
  EXPECT_EQ(mul->text(), "*");
  EXPECT_EQ(mul->child(0)->kind(), NodeKind::kParenExpr);
}

TEST(Parser, AssignmentIsRightAssociative) {
  auto r = parse_ok("void f(void) { int a; int b; a = b = 3; }");
  const AstNode* fn = r.root()->child(0);
  const AstNode* body = fn->child(0);
  const AstNode* outer = body->child(2);
  ASSERT_EQ(outer->text(), "=");
  EXPECT_EQ(outer->child(1)->text(), "=");
}

TEST(Parser, CompoundAssignmentNode) {
  auto r = parse_ok("void f(void) { double s = 0.0; s += 1.5; }");
  EXPECT_EQ(count_of(r.root(), NodeKind::kCompoundAssignOperator), 1u);
}

TEST(Parser, ConditionalOperator) {
  auto r = parse_ok("int g(int x) { return x > 0 ? 1 : 2; }");
  EXPECT_EQ(count_of(r.root(), NodeKind::kConditionalOperator), 1u);
}

TEST(Parser, DeclRefResolvesToNearestScope) {
  auto r = parse_ok(R"(
    int x;
    void f(void) {
      int x;
      x = 1;
    }
  )");
  const AstNode* assign = first_of(r.root(), NodeKind::kBinaryOperator);
  const AstNode* ref = assign->child(0);
  ASSERT_EQ(ref->kind(), NodeKind::kDeclRefExpr);
  ASSERT_NE(ref->referenced_decl(), nullptr);
  // The inner VarDecl, not the global: the decl inside the function body.
  const AstNode* fn = r.root()->child(1);
  const AstNode* inner_decl = fn->child(0)->child(0)->child(0);
  EXPECT_EQ(ref->referenced_decl(), inner_decl);
}

TEST(Parser, UnresolvedIdentifierHasNullDecl) {
  auto r = parse_ok("double g(double x) { return sqrt(x); }");
  const AstNode* call = first_of(r.root(), NodeKind::kCallExpr);
  ASSERT_NE(call, nullptr);
  const AstNode* callee = call->child(0);
  EXPECT_EQ(callee->referenced_decl(), nullptr);
  EXPECT_EQ(callee->text(), "sqrt");
}

TEST(Parser, ArrayTypesRecordExtents) {
  auto r = parse_ok("double grid[128][256];");
  const AstNode* var = first_of(r.root(), NodeKind::kVarDecl);
  ASSERT_NE(var, nullptr);
  ASSERT_EQ(var->type().array_extents.size(), 2u);
  EXPECT_EQ(var->type().array_extents[0], 128);
  EXPECT_EQ(var->type().array_extents[1], 256);
  EXPECT_EQ(var->type().total_array_elements(), 128 * 256);
}

TEST(Parser, PointerDeclarators) {
  auto r = parse_ok("void f(double* p, int** q) { }");
  const AstNode* fn = r.root()->child(0);
  EXPECT_EQ(fn->child(0)->type().pointer_depth, 1);
  EXPECT_EQ(fn->child(1)->type().pointer_depth, 2);
}

TEST(Parser, MultiDeclaratorStatement) {
  auto r = parse_ok("void f(void) { int a = 1, b = 2, c; }");
  const AstNode* decl_stmt = first_of(r.root(), NodeKind::kDeclStmt);
  EXPECT_EQ(decl_stmt->num_children(), 3u);
}

TEST(Parser, ImplicitCastOnRvalueReadsOnly) {
  auto r = parse_ok("void f(void) { int a = 0; int b; b = a; }");
  // 'a' read -> wrapped; 'b' written -> not wrapped.
  const AstNode* fn = r.root()->child(0);
  const AstNode* assign = fn->child(0)->child(2);
  ASSERT_EQ(assign->text(), "=");
  EXPECT_EQ(assign->child(0)->kind(), NodeKind::kDeclRefExpr);
  EXPECT_EQ(assign->child(1)->kind(), NodeKind::kImplicitCastExpr);
  EXPECT_EQ(assign->child(1)->child(0)->kind(), NodeKind::kDeclRefExpr);
}

TEST(Parser, NoImplicitCastOnIncrementOperand) {
  auto r = parse_ok("void f(void) { int i = 0; i++; }");
  const AstNode* inc = first_of(r.root(), NodeKind::kUnaryOperator);
  ASSERT_NE(inc, nullptr);
  EXPECT_EQ(inc->child(0)->kind(), NodeKind::kDeclRefExpr);
}

TEST(Parser, ArrayBaseNotWrappedIndexIs) {
  auto r = parse_ok("void f(void) { double v[8]; int i = 0; v[i] = v[i] + 1.0; }");
  const AstNode* assign = first_of(r.root(), NodeKind::kBinaryOperator);
  const AstNode* lhs = assign->child(0);
  ASSERT_EQ(lhs->kind(), NodeKind::kArraySubscriptExpr);
  EXPECT_EQ(lhs->child(0)->kind(), NodeKind::kDeclRefExpr);      // base
  EXPECT_EQ(lhs->child(1)->kind(), NodeKind::kImplicitCastExpr); // index read
}

TEST(Parser, TypeInferenceIntPlusDoubleIsDouble) {
  auto r = parse_ok("double g(int a, double b) { return a + b; }");
  const AstNode* ret = first_of(r.root(), NodeKind::kReturnStmt);
  EXPECT_EQ(ret->child(0)->type().base, BaseType::kDouble);
}

TEST(Parser, ComparisonHasIntType) {
  auto r = parse_ok("int g(double a) { return a < 1.0; }");
  const AstNode* ret = first_of(r.root(), NodeKind::kReturnStmt);
  EXPECT_EQ(ret->child(0)->type().base, BaseType::kInt);
}

TEST(Parser, SubscriptPeelsArrayDimension) {
  auto r = parse_ok("double g(void) { double m[4][8]; return m[1][2]; }");
  const AstNode* ret = first_of(r.root(), NodeKind::kReturnStmt);
  const AstNode* outer = ret->child(0);
  ASSERT_EQ(outer->kind(), NodeKind::kArraySubscriptExpr);
  EXPECT_TRUE(outer->type().array_extents.empty());
  EXPECT_EQ(outer->child(0)->type().array_extents.size(), 1u);
}

TEST(Parser, CallExprChildrenAreCalleeThenArgs) {
  auto r = parse_ok("double g(double x) { return pow(x, 2.0); }");
  const AstNode* call = first_of(r.root(), NodeKind::kCallExpr);
  ASSERT_EQ(call->num_children(), 3u);
  EXPECT_EQ(call->child(0)->text(), "pow");
}

// --- OpenMP -----------------------------------------------------------

TEST(Parser, OmpParallelForDirective) {
  auto r = parse_ok(R"(
    void f(void) {
      #pragma omp parallel for num_threads(8) schedule(static)
      for (int i = 0; i < 100; i++) { }
    }
  )");
  const AstNode* dir = first_of(r.root(), NodeKind::kOmpParallelForDirective);
  ASSERT_NE(dir, nullptr);
  EXPECT_EQ(count_of(dir, NodeKind::kOmpNumThreadsClause), 1u);
  EXPECT_EQ(count_of(dir, NodeKind::kOmpScheduleClause), 1u);
  EXPECT_EQ(dir->omp_body()->kind(), NodeKind::kForStmt);
}

TEST(Parser, OmpTargetTeamsDirective) {
  auto r = parse_ok(R"(
    double a[64];
    void f(void) {
      #pragma omp target teams distribute parallel for num_teams(32) thread_limit(64) collapse(2)
      for (int i = 0; i < 8; i++)
        for (int j = 0; j < 8; j++)
          a[i] = a[i] + j;
    }
  )");
  const AstNode* dir =
      first_of(r.root(), NodeKind::kOmpTargetTeamsDistributeParallelForDirective);
  ASSERT_NE(dir, nullptr);
  EXPECT_EQ(count_of(dir, NodeKind::kOmpNumTeamsClause), 1u);
  EXPECT_EQ(count_of(dir, NodeKind::kOmpThreadLimitClause), 1u);
  EXPECT_EQ(count_of(dir, NodeKind::kOmpCollapseClause), 1u);
}

TEST(Parser, OmpMapClauseDirections) {
  auto r = parse_ok(R"(
    double a[64];
    double b[64];
    double c[64];
    void f(void) {
      #pragma omp target teams distribute parallel for num_teams(4) thread_limit(32) map(to: a[0:64], b[0:64]) map(from: c[0:64])
      for (int i = 0; i < 64; i++) c[i] = a[i] + b[i];
    }
  )");
  EXPECT_EQ(count_of(r.root(), NodeKind::kOmpMapToClause), 1u);
  EXPECT_EQ(count_of(r.root(), NodeKind::kOmpMapFromClause), 1u);
  EXPECT_EQ(count_of(r.root(), NodeKind::kOmpArraySection), 3u);
}

TEST(Parser, OmpReductionClauseResolvesVariables) {
  auto r = parse_ok(R"(
    double x[100];
    void f(void) {
      double s = 0.0;
      #pragma omp parallel for num_threads(4) reduction(+: s)
      for (int i = 0; i < 100; i++) s += x[i];
    }
  )");
  const AstNode* red = first_of(r.root(), NodeKind::kOmpReductionClause);
  ASSERT_NE(red, nullptr);
  EXPECT_EQ(red->text(), "+");
  ASSERT_EQ(red->num_children(), 1u);
  EXPECT_NE(red->child(0)->referenced_decl(), nullptr);
}

TEST(Parser, OmpArraySectionShape) {
  auto r = parse_ok(R"(
    double a[100];
    void f(void) {
      #pragma omp target teams distribute parallel for num_teams(2) thread_limit(8) map(tofrom: a[0:100])
      for (int i = 0; i < 100; i++) a[i] = 0.0;
    }
  )");
  const AstNode* section = first_of(r.root(), NodeKind::kOmpArraySection);
  ASSERT_NE(section, nullptr);
  ASSERT_EQ(section->num_children(), 3u);  // base, lower, length
  EXPECT_EQ(section->child(0)->kind(), NodeKind::kDeclRefExpr);
}

TEST(Parser, OmpDirectiveRequiresForLoop) {
  auto r = parse_source(R"(
    void f(void) {
      #pragma omp parallel for num_threads(2)
      { }
    }
  )");
  EXPECT_FALSE(r.ok());
}

TEST(Parser, UnsupportedPragmaIsError) {
  auto r = parse_source(R"(
    void f(void) {
      #pragma omp barrier
      for (int i = 0; i < 4; i++) {}
    }
  )");
  EXPECT_FALSE(r.ok());
}

TEST(Parser, ContinuedPragmaParsesLikeOneLine) {
  // Backslash-newline continuations fold into spaces; the folded body is
  // kept by the parse, so clause text read from it stays valid.
  const char* kOneLine = R"(
    double x[64];
    void f(void) {
      double s = 0.0;
      #pragma omp parallel for num_threads(4) schedule(dynamic, 2) reduction(max: s)
      for (int i = 0; i < 64; i++) s += x[i];
    })";
  const char* kContinued = "\n    double x[64];\n    void f(void) {\n"
                           "      double s = 0.0;\n"
                           "      #pragma \\\n omp parallel for num_threads(4) \\\n"
                           "  schedule(dynamic, 2) \\\n reduction(max: s)\n"
                           "      for (int i = 0; i < 64; i++) s += x[i];\n    }";
  auto one_line = parse_ok(kOneLine);
  auto continued = parse_ok(kContinued);
  EXPECT_EQ(dump_ast(continued.root()), dump_ast(one_line.root()));
  const AstNode* schedule = first_of(continued.root(), NodeKind::kOmpScheduleClause);
  ASSERT_NE(schedule, nullptr);
  EXPECT_EQ(schedule->text(), "dynamic");
  const AstNode* reduction = first_of(continued.root(), NodeKind::kOmpReductionClause);
  ASSERT_NE(reduction, nullptr);
  EXPECT_EQ(reduction->text(), "max");

  auto unsupported = parse_source("void f(void) {\n#pragma omp parallel \\\n  sections\n}");
  ASSERT_FALSE(unsupported.diagnostics.entries().empty());
  EXPECT_EQ(unsupported.diagnostics.entries()[0].message,
            "unsupported OpenMP directive: omp parallel    sections");
}

TEST(Parser, DirectiveKindsDistinguishVariants) {
  // gpu vs cpu variants must be distinguishable by node kind alone.
  auto cpu = parse_ok(R"(
    void f(void) {
      #pragma omp parallel for num_threads(2)
      for (int i = 0; i < 4; i++) {}
    })");
  auto gpu = parse_ok(R"(
    void f(void) {
      #pragma omp target teams distribute parallel for num_teams(2) thread_limit(2)
      for (int i = 0; i < 4; i++) {}
    })");
  EXPECT_EQ(count_of(cpu.root(), NodeKind::kOmpParallelForDirective), 1u);
  EXPECT_EQ(count_of(gpu.root(),
                     NodeKind::kOmpTargetTeamsDistributeParallelForDirective), 1u);
}

// --- errors -------------------------------------------------------------

TEST(Parser, MissingSemicolonIsError) {
  EXPECT_FALSE(parse_source("void f(void) { int x = 1 }").ok());
}

TEST(Parser, UnbalancedBraceIsError) {
  EXPECT_FALSE(parse_source("void f(void) { ").ok());
}

TEST(Parser, GarbageAtTopLevelIsError) {
  EXPECT_FALSE(parse_source("42;").ok());
}

TEST(Parser, DiagnosticsCarryLocation) {
  auto r = parse_source("void f(void) {\n  int x = ;\n}");
  ASSERT_TRUE(r.diagnostics.has_errors());
  EXPECT_EQ(r.diagnostics.entries()[0].location.line, 2u);
}

// --- terminals / token order ---------------------------------------------

TEST(Parser, TerminalsComeBackInSourceOrder) {
  auto r = parse_ok("void f(void) { int a = 1; int b = 2; a = a + b; }");
  const auto terminals = test::terminals_in_token_order(r.root());
  ASSERT_GE(terminals.size(), 5u);
  for (std::size_t i = 1; i < terminals.size(); ++i)
    EXPECT_LE(terminals[i - 1]->range().begin.offset,
              terminals[i]->range().begin.offset);
}

TEST(Parser, DumpContainsKindsAndNames) {
  auto r = parse_ok("int add(int a, int b) { return a + b; }");
  const std::string dump = dump_ast(r.root());
  EXPECT_NE(dump.find("FunctionDecl 'add'"), std::string::npos);
  EXPECT_NE(dump.find("ParmVarDecl 'a'"), std::string::npos);
  EXPECT_NE(dump.find("ReturnStmt"), std::string::npos);
}

TEST(Parser, SubtreeSizeCountsAllNodes) {
  auto r = parse_ok("void f(void) {}");
  // TU + FunctionDecl + CompoundStmt.
  EXPECT_EQ(subtree_size(r.root()), 3u);
}

// --- AST byte pin ---------------------------------------------------------

class Fnv {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void value(const T& v) { bytes(&v, sizeof v); }
  void text(std::string_view t) {
    value(t.size());
    bytes(t.data(), t.size());
  }
  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void hash_location(Fnv& h, const SourceLocation& loc) {
  h.value(loc.offset);
  h.value(loc.line);
  h.value(loc.column);
}

/// Every node in preorder: kind, text, int and float value, full type,
/// source range, referenced decl (as a preorder index) and child count.
void hash_ast(Fnv& h, const AstNode* root) {
  std::vector<const AstNode*> order;
  std::unordered_map<const AstNode*, std::uint64_t> index;
  walk(root, [&](const AstNode* n, int) {
    index.emplace(n, order.size());
    order.push_back(n);
    return true;
  });
  h.value(order.size());
  for (const AstNode* n : order) {
    h.value(n->kind());
    h.text(n->text());
    h.value(n->int_value());
    h.value(n->float_value());
    const QualType& t = n->type();
    h.value(t.base);
    h.value(t.pointer_depth);
    h.value(t.is_const);
    h.value(std::size_t{t.array_extents.size()});
    for (std::size_t i = 0; i < t.array_extents.size(); ++i) h.value(t.array_extents[i]);
    hash_location(h, n->range().begin);
    hash_location(h, n->range().end);
    std::uint64_t decl = ~std::uint64_t{0};
    if (const AstNode* d = n->referenced_decl(); d != nullptr) {
      const auto it = index.find(d);
      ASSERT_NE(it, index.end()) << "referenced decl outside the tree";
      decl = it->second;
    }
    h.value(decl);
    h.value(std::size_t{n->num_children()});
  }
}

void hash_parse(Fnv& h, const ParseResult& r) {
  h.value(r.ok());
  h.value(r.diagnostics.entries().size());
  if (!r.diagnostics.entries().empty()) {
    hash_location(h, r.diagnostics.entries()[0].location);
    h.text(r.diagnostics.entries()[0].message);
  }
  if (r.ok()) hash_ast(h, r.root());
}

TEST(Parser, AstsMatchRecordedHash) {
  // Byte pin of parse_source: every unique source of the builder pin's
  // enumeration (suite kernel x variant x advise launch configuration x
  // first/last sweep size), the robustness seeds and their seeded
  // mutations. Recorded before the frontend moved onto one arena; a change
  // of storage must not move it.
  const std::vector<std::int64_t> cpu_threads = {8, sim::summit_power9().cores};
  const std::vector<std::pair<std::int64_t, std::int64_t>> gpu_configs = {
      {64, 128}, {256, 256}, {1024, 256}};
  std::set<std::string> sources;
  for (const dataset::KernelSpec& spec : dataset::benchmark_suite()) {
    for (const dataset::SizePoint* size :
         {&spec.default_sizes.front(), &spec.default_sizes.back()}) {
      for (const bool gpu : {false, true}) {
        std::vector<std::pair<std::int64_t, std::int64_t>> configs;
        if (gpu) configs = gpu_configs;
        else
          for (const std::int64_t t : cpu_threads) configs.emplace_back(1, t);
        for (const dataset::Variant variant : dataset::applicable_variants(spec, gpu))
          for (const auto& [teams, threads] : configs)
            sources.insert(dataset::instantiate_source(spec, variant, *size, teams, threads));
      }
    }
  }
  Fnv suite;
  for (const std::string& source : sources) {
    const ParseResult r = parse_source(source);
    ASSERT_TRUE(r.ok()) << r.diagnostics.summary();
    hash_parse(suite, r);
  }
  const std::vector<std::string> seeds = test::seed_sources();
  Fnv mutated;
  std::size_t accepted = 0;
  for (const std::string& source : seeds) hash_parse(mutated, parse_source(source));
  for (const std::string& source : test::seeded_mutations(seeds)) {
    const ParseResult r = parse_source(source);
    accepted += r.ok();
    hash_parse(mutated, r);
  }
  EXPECT_EQ(sources.size(), 368u);
  EXPECT_EQ(accepted, 122u);
  EXPECT_EQ(suite.digest(), 0x086fc69242d8065bULL) << "0x" << std::hex << suite.digest();
  EXPECT_EQ(mutated.digest(), 0x5a55f9d2a64878baULL) << "0x" << std::hex << mutated.digest();
}

}  // namespace
}  // namespace pg::frontend
