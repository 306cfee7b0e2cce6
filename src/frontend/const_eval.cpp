// Depth-bounded constant folder over integer expressions and decl inits.
#include "frontend/const_eval.hpp"

namespace pg::frontend {
namespace {

constexpr int kMaxFoldDepth = 64;  // guards against decl-init cycles

std::optional<std::int64_t> eval(const AstNode* expr, int depth) {
  if (expr == nullptr || depth > kMaxFoldDepth) return std::nullopt;
  switch (expr->kind()) {
    case NodeKind::kIntegerLiteral:
    case NodeKind::kCharacterLiteral:
      return expr->int_value();
    case NodeKind::kParenExpr:
    case NodeKind::kImplicitCastExpr:
      return eval(expr->child(0), depth + 1);
    case NodeKind::kDeclRefExpr: {
      const AstNode* decl = expr->referenced_decl();
      if (decl == nullptr) return std::nullopt;
      if (!decl->is(NodeKind::kVarDecl) || decl->num_children() != 1)
        return std::nullopt;
      return eval(decl->child(0), depth + 1);
    }
    case NodeKind::kUnaryOperator: {
      auto sub = eval(expr->child(0), depth + 1);
      if (!sub) return std::nullopt;
      const std::string_view op = expr->text();
      if (op == "-") return -*sub;
      if (op == "+") return *sub;
      if (op == "~") return ~*sub;
      if (op == "!") return *sub == 0 ? 1 : 0;
      if (op == "sizeof") return *sub;
      return std::nullopt;
    }
    case NodeKind::kBinaryOperator: {
      auto lhs = eval(expr->child(0), depth + 1);
      auto rhs = eval(expr->child(1), depth + 1);
      if (!lhs || !rhs) return std::nullopt;
      const std::string_view op = expr->text();
      if (op == "+") return *lhs + *rhs;
      if (op == "-") return *lhs - *rhs;
      if (op == "*") return *lhs * *rhs;
      if (op == "/") return *rhs == 0 ? std::nullopt : std::optional(*lhs / *rhs);
      if (op == "%") return *rhs == 0 ? std::nullopt : std::optional(*lhs % *rhs);
      if (op == "<<") return *lhs << (*rhs & 63);
      if (op == ">>") return *lhs >> (*rhs & 63);
      if (op == "&") return *lhs & *rhs;
      if (op == "|") return *lhs | *rhs;
      if (op == "^") return *lhs ^ *rhs;
      if (op == "<") return *lhs < *rhs ? 1 : 0;
      if (op == ">") return *lhs > *rhs ? 1 : 0;
      if (op == "<=") return *lhs <= *rhs ? 1 : 0;
      if (op == ">=") return *lhs >= *rhs ? 1 : 0;
      if (op == "==") return *lhs == *rhs ? 1 : 0;
      if (op == "!=") return *lhs != *rhs ? 1 : 0;
      return std::nullopt;
    }
    case NodeKind::kConditionalOperator: {
      auto cond = eval(expr->child(0), depth + 1);
      if (!cond) return std::nullopt;
      return eval(expr->child(*cond != 0 ? 1 : 2), depth + 1);
    }
    default:
      return std::nullopt;
  }
}

}  // namespace

std::optional<std::int64_t> evaluate_integer_constant(const AstNode* expr) {
  return eval(expr, 0);
}

}  // namespace pg::frontend
