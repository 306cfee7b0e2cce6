// AST walk that counts flops/loads/stores, measures footprints, and
// extracts parallel structure for the runtime model.
#include "sim/kernel_profile.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_set>

#include "frontend/const_eval.hpp"
#include "frontend/loop_analysis.hpp"
#include "support/check.hpp"

namespace pg::sim {
namespace {

using frontend::AstNode;
using frontend::NodeKind;

bool is_transcendental_name(std::string_view name) {
  static const std::unordered_set<std::string_view> kNames = {
      "sqrt", "sqrtf", "exp", "expf", "log", "logf", "pow", "powf",
      "sin",  "sinf",  "cos", "cosf", "tan", "fabs", "fabsf", "atan",
      "atan2", "floor", "ceil", "round"};
  return kNames.contains(name);
}

const AstNode* strip(const AstNode* e) {
  while (e != nullptr &&
         (e->is(NodeKind::kParenExpr) || e->is(NodeKind::kImplicitCastExpr)))
    e = e->child(0);
  return e;
}

/// The declaration an lvalue expression ultimately names (array base).
const AstNode* base_decl(const AstNode* e) {
  e = strip(e);
  while (e != nullptr && e->is(NodeKind::kArraySubscriptExpr)) e = strip(e->child(0));
  if (e != nullptr && e->is(NodeKind::kDeclRefExpr)) return e->referenced_decl();
  return nullptr;
}

/// True when `expr` mentions `decl` anywhere.
bool mentions_decl(const AstNode* expr, const AstNode* decl) {
  bool found = false;
  frontend::walk(expr, [&](const AstNode* n, int) {
    if (n->is(NodeKind::kDeclRefExpr) && n->referenced_decl() == decl) found = true;
    return !found;
  });
  return found;
}

class Profiler {
 public:
  explicit Profiler(std::int64_t fallback_trip) : fallback_trip_(fallback_trip) {}

  KernelProfile run(const AstNode* tu) {
    check(tu != nullptr, "profile_kernel: null AST");
    walk_stmt(tu, 1.0, /*in_branch=*/false);
    finalize();
    return profile_;
  }

 private:
  void record_directive(const AstNode* directive) {
    profile_.has_directive = true;
    profile_.offload =
        directive->is(NodeKind::kOmpTargetTeamsDistributeParallelForDirective);
    for (const AstNode* clause : directive->children()) {
      switch (clause->kind()) {
        case NodeKind::kOmpCollapseClause: {
          auto v = frontend::evaluate_integer_constant(clause->child(0));
          profile_.collapse_depth = static_cast<int>(v.value_or(1));
          break;
        }
        case NodeKind::kOmpNumThreadsClause:
        case NodeKind::kOmpThreadLimitClause: {
          auto v = frontend::evaluate_integer_constant(clause->child(0));
          profile_.num_threads = v.value_or(1);
          break;
        }
        case NodeKind::kOmpNumTeamsClause: {
          auto v = frontend::evaluate_integer_constant(clause->child(0));
          profile_.num_teams = v.value_or(1);
          break;
        }
        case NodeKind::kOmpMapToClause:
        case NodeKind::kOmpMapFromClause:
        case NodeKind::kOmpMapTofromClause:
          record_map_clause(clause);
          break;
        default:
          break;
      }
    }
    // Distributed iteration space: the associated loop nest's first
    // collapse_depth levels.
    const AstNode* loop = directive->omp_body();
    std::int64_t iterations = 1;
    for (int level = 0; level < std::max(1, profile_.collapse_depth); ++level) {
      if (loop == nullptr || !loop->is(NodeKind::kForStmt)) break;
      iterations *= std::max<std::int64_t>(
          1, frontend::trip_count_or(loop, fallback_trip_));
      // Descend into a directly nested for (possibly inside a compound).
      const AstNode* body = loop->for_body();
      if (body->is(NodeKind::kCompoundStmt) && body->num_children() == 1)
        body = body->child(0);
      loop = body->is(NodeKind::kForStmt) ? body : nullptr;
    }
    profile_.parallel_iterations = iterations;
  }

  void record_map_clause(const AstNode* clause) {
    double bytes = 0.0;
    for (const AstNode* operand : clause->children()) {
      double elems = 0.0;
      std::size_t elem_size = 8;
      if (operand->is(NodeKind::kOmpArraySection)) {
        const AstNode* base = operand->child(0);
        if (base->referenced_decl() != nullptr)
          elem_size = base->referenced_decl()->type().element_size();
        // children: base, then (lower, length) pairs.
        double total = 1.0;
        for (std::size_t i = 2; i < operand->num_children(); i += 2) {
          auto len = frontend::evaluate_integer_constant(operand->child(i));
          total *= static_cast<double>(len.value_or(fallback_trip_));
        }
        elems = total;
      } else if (operand->is(NodeKind::kDeclRefExpr) &&
                 operand->referenced_decl() != nullptr) {
        const auto& type = operand->referenced_decl()->type();
        elem_size = type.element_size();
        const std::int64_t total = type.total_array_elements();
        elems = static_cast<double>(
            total == frontend::QualType::kUnknownExtent ? fallback_trip_ : total);
      }
      bytes += elems * static_cast<double>(elem_size);
    }
    if (clause->is(NodeKind::kOmpMapToClause)) profile_.transfer_to_bytes += bytes;
    if (clause->is(NodeKind::kOmpMapFromClause)) profile_.transfer_from_bytes += bytes;
    if (clause->is(NodeKind::kOmpMapTofromClause)) {
      profile_.transfer_to_bytes += bytes;
      profile_.transfer_from_bytes += bytes;
    }
  }

  /// Innermost enclosing loop's induction variable (for contiguity checks).
  [[nodiscard]] const AstNode* innermost_induction_var() const {
    return loop_ivs_.empty() ? nullptr : loop_ivs_.back();
  }

  void count_access(const AstNode* subscript, bool is_store, double mult) {
    const AstNode* decl = base_decl(subscript);
    std::size_t elem_size = 8;
    if (decl != nullptr) {
      elem_size = decl->type().element_size();
      if (touched_.insert(decl).second) {
        const std::int64_t elems = decl->type().total_array_elements();
        if (elems != frontend::QualType::kUnknownExtent && decl->type().is_array())
          profile_.footprint_bytes +=
              static_cast<double>(elems) * static_cast<double>(elem_size);
      }
    }
    if (is_store) profile_.stores += mult;
    else profile_.loads += mult;
    profile_.bytes_accessed += mult * static_cast<double>(elem_size);

    // Contiguity: the fastest-varying (last) index mentions the innermost
    // loop variable => unit stride.
    const AstNode* iv = innermost_induction_var();
    const AstNode* index = subscript->child(1);
    const bool contiguous = iv != nullptr && mentions_decl(index, iv);
    contiguous_weight_ += contiguous ? mult : 0.0;
    access_weight_ += mult;
  }

  void walk_expr(const AstNode* expr, double mult, bool is_store_target) {
    if (expr == nullptr) return;
    switch (expr->kind()) {
      case NodeKind::kBinaryOperator: {
        const std::string_view op = expr->text();
        const bool assign = (op == "=");
        if (assign) {
          walk_expr(expr->child(0), mult, /*is_store_target=*/true);
          walk_expr(expr->child(1), mult, false);
          return;
        }
        walk_expr(expr->child(0), mult, false);
        walk_expr(expr->child(1), mult, false);
        if (op == "," || op == "&&" || op == "||") return;
        if (expr->type().is_floating()) profile_.flops += mult;
        else profile_.int_ops += mult;
        return;
      }
      case NodeKind::kCompoundAssignOperator: {
        // x op= e: read-modify-write.
        walk_expr(expr->child(0), mult, /*is_store_target=*/true);
        walk_expr(expr->child(0), mult, false);
        walk_expr(expr->child(1), mult, false);
        if (expr->type().is_floating()) profile_.flops += mult;
        else profile_.int_ops += mult;
        return;
      }
      case NodeKind::kUnaryOperator: {
        walk_expr(expr->child(0), mult, false);
        const std::string_view op = expr->text();
        if (op == "-" || op == "+" || op == "~" || op == "!" ||
            op.starts_with("++") || op.starts_with("--")) {
          if (expr->type().is_floating()) profile_.flops += mult;
          else profile_.int_ops += mult;
        }
        return;
      }
      case NodeKind::kCallExpr: {
        const AstNode* callee = strip(expr->child(0));
        if (callee != nullptr && callee->is(NodeKind::kDeclRefExpr) &&
            is_transcendental_name(callee->text()))
          profile_.transcendental += mult;
        for (std::size_t i = 1; i < expr->num_children(); ++i)
          walk_expr(expr->child(i), mult, false);
        return;
      }
      case NodeKind::kArraySubscriptExpr: {
        count_access(expr, is_store_target, mult);
        // Index expressions are address arithmetic, not data accesses; we
        // still count their integer ops.
        const AstNode* base = strip(expr->child(0));
        if (base->is(NodeKind::kArraySubscriptExpr)) {
          // Multi-dim: the inner subscript is addressing, walk only indices.
          walk_expr(base->child(1), mult, false);
        }
        walk_expr(expr->child(1), mult, false);
        return;
      }
      case NodeKind::kConditionalOperator:
        walk_expr(expr->child(0), mult, false);
        walk_expr(expr->child(1), mult * 0.5, false);
        walk_expr(expr->child(2), mult * 0.5, false);
        return;
      default:
        for (const AstNode* child : expr->children())
          walk_expr(child, mult, is_store_target);
        return;
    }
  }

  void walk_stmt(const AstNode* stmt, double mult, bool in_branch) {
    if (stmt == nullptr) return;
    switch (stmt->kind()) {
      case NodeKind::kTranslationUnit:
      case NodeKind::kFunctionDecl:
      case NodeKind::kCompoundStmt:
        for (const AstNode* child : stmt->children())
          walk_stmt(child, mult, in_branch);
        return;
      case NodeKind::kOmpParallelForDirective:
      case NodeKind::kOmpTargetTeamsDistributeParallelForDirective:
        record_directive(stmt);
        walk_stmt(stmt->omp_body(), mult, in_branch);
        return;
      case NodeKind::kForStmt: {
        const double trips = static_cast<double>(
            std::max<std::int64_t>(1, frontend::trip_count_or(stmt, fallback_trip_)));
        profile_.loop_depth =
            std::max(profile_.loop_depth, static_cast<int>(loop_ivs_.size()) + 1);
        auto info = frontend::analyze_for_loop(stmt);
        loop_ivs_.push_back(info ? info->induction_var : nullptr);
        walk_stmt(stmt->for_init(), mult, in_branch);
        walk_expr(stmt->for_cond(), mult * trips, false);
        walk_stmt(stmt->for_body(), mult * trips, in_branch);
        walk_expr(stmt->for_inc(), mult * trips, false);
        loop_ivs_.pop_back();
        return;
      }
      case NodeKind::kWhileStmt:
      case NodeKind::kDoStmt: {
        const double trips = static_cast<double>(fallback_trip_);
        loop_ivs_.push_back(nullptr);
        for (const AstNode* child : stmt->children())
          walk_stmt(child, mult * trips, in_branch);
        loop_ivs_.pop_back();
        return;
      }
      case NodeKind::kIfStmt: {
        walk_expr(stmt->if_cond(), mult, false);
        const double before = profile_.total_ops() + profile_.loads + profile_.stores;
        walk_stmt(stmt->if_then(), mult * 0.5, true);
        if (stmt->if_else() != nullptr) walk_stmt(stmt->if_else(), mult * 0.5, true);
        const double after = profile_.total_ops() + profile_.loads + profile_.stores;
        branch_weight_ += after - before;
        return;
      }
      case NodeKind::kDeclStmt:
        for (const AstNode* var : stmt->children())
          if (var->num_children() == 1) walk_expr(var->child(0), mult, false);
        return;
      case NodeKind::kVarDecl:
        if (stmt->num_children() == 1) walk_expr(stmt->child(0), mult, false);
        return;
      case NodeKind::kReturnStmt:
        if (stmt->num_children() == 1) walk_expr(stmt->child(0), mult, false);
        return;
      case NodeKind::kBreakStmt:
      case NodeKind::kContinueStmt:
      case NodeKind::kNullStmt:
        return;
      default:
        // Expression statement.
        walk_expr(stmt, mult, false);
        return;
    }
  }

  void finalize() {
    const double total_work =
        profile_.total_ops() + profile_.loads + profile_.stores;
    profile_.branch_fraction =
        total_work > 0.0 ? std::clamp(branch_weight_ / total_work, 0.0, 1.0) : 0.0;
    profile_.contiguous_fraction =
        access_weight_ > 0.0 ? contiguous_weight_ / access_weight_ : 1.0;
  }

  KernelProfile profile_;
  std::int64_t fallback_trip_;
  std::vector<const AstNode*> loop_ivs_;
  std::unordered_set<const AstNode*> touched_;
  double contiguous_weight_ = 0.0;
  double access_weight_ = 0.0;
  double branch_weight_ = 0.0;
};

}  // namespace

KernelProfile profile_kernel(const frontend::AstNode* translation_unit,
                             std::int64_t fallback_trip) {
  Profiler profiler(fallback_trip);
  return profiler.run(translation_unit);
}

}  // namespace pg::sim
