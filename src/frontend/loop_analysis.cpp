// Trip-count and induction-variable extraction from canonical for-loops,
// folding bounds with the constant evaluator.
#include "frontend/loop_analysis.hpp"

#include "frontend/const_eval.hpp"

namespace pg::frontend {
namespace {

const AstNode* strip(const AstNode* expr) {
  while (expr != nullptr &&
         (expr->is(NodeKind::kParenExpr) || expr->is(NodeKind::kImplicitCastExpr)))
    expr = expr->child(0);
  return expr;
}

/// Returns the decl a (possibly wrapped) DeclRefExpr names, else nullptr.
const AstNode* ref_target(const AstNode* expr) {
  expr = strip(expr);
  if (expr != nullptr && expr->is(NodeKind::kDeclRefExpr))
    return expr->referenced_decl();
  return nullptr;
}

/// Extracts (induction decl, begin value) from the init child:
/// either `int i = E` (DeclStmt) or `i = E` (assignment).
std::optional<std::pair<const AstNode*, std::int64_t>> analyze_init(
    const AstNode* init) {
  if (init == nullptr) return std::nullopt;
  if (init->is(NodeKind::kDeclStmt) && init->num_children() == 1) {
    const AstNode* var = init->child(0);
    if (!var->is(NodeKind::kVarDecl) || var->num_children() != 1) return std::nullopt;
    auto value = evaluate_integer_constant(var->child(0));
    if (!value) return std::nullopt;
    return std::pair{var, *value};
  }
  if (init->is(NodeKind::kBinaryOperator) && init->text() == "=") {
    const AstNode* target = ref_target(init->child(0));
    if (target == nullptr) return std::nullopt;
    auto value = evaluate_integer_constant(init->child(1));
    if (!value) return std::nullopt;
    return std::pair{target, *value};
  }
  return std::nullopt;
}

/// Extracts the per-iteration step for the induction variable from the inc
/// child: i++, ++i, i--, --i, i += c, i -= c, i = i + c, i = i - c.
std::optional<std::int64_t> analyze_step(const AstNode* inc, const AstNode* iv) {
  if (inc == nullptr) return std::nullopt;
  inc = strip(inc);
  if (inc->is(NodeKind::kUnaryOperator)) {
    if (ref_target(inc->child(0)) != iv) return std::nullopt;
    const std::string_view op = inc->text();
    if (op == "++pre" || op == "++post") return 1;
    if (op == "--pre" || op == "--post") return -1;
    return std::nullopt;
  }
  if (inc->is(NodeKind::kCompoundAssignOperator)) {
    if (ref_target(inc->child(0)) != iv) return std::nullopt;
    auto value = evaluate_integer_constant(inc->child(1));
    if (!value) return std::nullopt;
    if (inc->text() == "+=") return *value;
    if (inc->text() == "-=") return -*value;
    return std::nullopt;
  }
  if (inc->is(NodeKind::kBinaryOperator) && inc->text() == "=") {
    if (ref_target(inc->child(0)) != iv) return std::nullopt;
    const AstNode* rhs = strip(inc->child(1));
    if (rhs == nullptr || !rhs->is(NodeKind::kBinaryOperator)) return std::nullopt;
    const bool lhs_is_iv = ref_target(rhs->child(0)) == iv;
    const AstNode* addend = lhs_is_iv ? rhs->child(1) : rhs->child(0);
    if (!lhs_is_iv && ref_target(rhs->child(1)) != iv) return std::nullopt;
    auto value = evaluate_integer_constant(addend);
    if (!value) return std::nullopt;
    if (rhs->text() == "+") return *value;
    if (rhs->text() == "-" && lhs_is_iv) return -*value;
    return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

std::optional<LoopInfo> analyze_for_loop(const AstNode* for_stmt) {
  if (for_stmt == nullptr || !for_stmt->is(NodeKind::kForStmt)) return std::nullopt;
  if (for_stmt->num_children() != 4) return std::nullopt;

  auto init = analyze_init(for_stmt->for_init());
  if (!init) return std::nullopt;
  const auto& [iv, begin] = *init;

  const AstNode* cond = strip(for_stmt->for_cond());
  if (cond == nullptr || !cond->is(NodeKind::kBinaryOperator)) return std::nullopt;
  const std::string_view relation = cond->text();
  if (relation != "<" && relation != "<=" && relation != ">" && relation != ">=")
    return std::nullopt;

  // Normalise `bound REL iv` into `iv REL' bound`.
  std::string_view rel = relation;
  const AstNode* bound_expr = nullptr;
  if (ref_target(cond->child(0)) == iv) {
    bound_expr = cond->child(1);
  } else if (ref_target(cond->child(1)) == iv) {
    bound_expr = cond->child(0);
    if (rel == "<") rel = ">";
    else if (rel == "<=") rel = ">=";
    else if (rel == ">") rel = "<";
    else rel = "<=";
  } else {
    return std::nullopt;
  }
  auto bound = evaluate_integer_constant(bound_expr);
  if (!bound) return std::nullopt;

  auto step = analyze_step(for_stmt->for_inc(), iv);
  if (!step || *step == 0) return std::nullopt;

  std::int64_t trips = 0;
  if ((rel == "<" || rel == "<=") && *step > 0) {
    const std::int64_t limit = *bound + (rel == "<=" ? 1 : 0);
    if (limit > begin) trips = (limit - begin + *step - 1) / *step;
  } else if ((rel == ">" || rel == ">=") && *step < 0) {
    const std::int64_t limit = *bound - (rel == ">=" ? 1 : 0);
    if (begin > limit) trips = (begin - limit + (-*step) - 1) / (-*step);
  } else {
    return std::nullopt;  // direction mismatch => non-terminating or zero-trip
  }

  LoopInfo info;
  info.induction_var = iv;
  info.begin = begin;
  info.bound = *bound;
  info.step = *step;
  info.relation = rel;
  info.trip_count = trips;
  return info;
}

std::int64_t trip_count_or(const AstNode* for_stmt, std::int64_t fallback) {
  auto info = analyze_for_loop(for_stmt);
  return info ? info->trip_count : fallback;
}

}  // namespace pg::frontend
