// Clang-shaped AST for the C subset.
//
// Design note: nodes are *homogeneous* — a single `AstNode` class carrying a
// `NodeKind` plus a small set of attribute fields, rather than a class
// hierarchy. ParaGraph construction, NextToken ordering, feature encoding,
// and the AST dumper are all generic tree walks over (kind, children), so a
// uniform node keeps every consumer a single loop. Kind-specific structure
// (e.g. "ForStmt has exactly 4 children") is enforced by the parser and by
// accessors that `check()` their preconditions.
//
// Storage and lifetime: one parse owns one AstContext, and everything the
// tree refers to lives in the context's chunked arena, which never moves
// what it has handed out:
//   * a copy of the source bytes, so node text outlives the caller's buffer;
//   * the nodes themselves (trivially destructible, never freed one by one);
//   * each node's children, one contiguous span of AstNode* written once
//     when the node is complete (set_child may still replace an entry);
//   * the folded body of a pragma that had line continuations.
// Node text is a std::string_view into that source copy or kept text, or a
// string literal for synthesized spellings ("++pre", "LValueToRValue",
// "CStyleCast"). Every pointer and view stays valid exactly as long as the
// context; nothing else needs to outlive the parse.
//
// Child layouts (documented invariants):
//   TranslationUnit : [FunctionDecl...]
//   FunctionDecl    : [ParmVarDecl..., CompoundStmt body]
//   DeclStmt        : [VarDecl...]
//   VarDecl         : [] or [init expr]
//   CompoundStmt    : [stmt...]
//   ForStmt         : [init, cond, body, inc]      <- paper's Fig. 2 order
//   WhileStmt       : [cond, body]
//   DoStmt          : [body, cond]
//   IfStmt          : [cond, then] or [cond, then, else]
//   ReturnStmt      : [] or [expr]
//   BinaryOperator / CompoundAssignOperator : [lhs, rhs]   (op in text())
//   UnaryOperator   : [operand]                            (op in text())
//   ConditionalOperator : [cond, true-expr, false-expr]
//   CallExpr        : [callee, args...]
//   ArraySubscriptExpr : [base, index]
//   ImplicitCastExpr / ParenExpr : [sub-expr]
//   DeclRefExpr / literals : []                    (terminal "syntax tokens")
//   Omp*Directive   : [clause-nodes..., associated stmt]
//   Omp*Clause      : [expr or DeclRef/ArraySection operands...]
//   OmpArraySection : [base DeclRef, lower expr, length expr]
//
// The ForStmt child order follows the paper's Figure 2 ([init, cond, body,
// inc]) rather than Clang's [init, cond, inc, body]; ForExec/ForNext edges
// assume it. NextToken edges are ordered by source location, so the layout
// difference does not leak into token order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "frontend/source_location.hpp"
#include "frontend/type.hpp"
#include "support/check.hpp"

namespace pg::frontend {

enum class NodeKind : std::uint8_t {
  kTranslationUnit,
  kFunctionDecl,
  kParmVarDecl,
  kVarDecl,
  kDeclStmt,
  kCompoundStmt,
  kForStmt,
  kWhileStmt,
  kDoStmt,
  kIfStmt,
  kReturnStmt,
  kBreakStmt,
  kContinueStmt,
  kNullStmt,
  kBinaryOperator,
  kCompoundAssignOperator,
  kUnaryOperator,
  kConditionalOperator,
  kCallExpr,
  kArraySubscriptExpr,
  kDeclRefExpr,
  kImplicitCastExpr,
  kParenExpr,
  kIntegerLiteral,
  kFloatingLiteral,
  kCharacterLiteral,
  kStringLiteral,
  kInitListExpr,
  // OpenMP directives: one kind per combined construct so that variants are
  // distinguishable by node-kind features alone.
  kOmpParallelForDirective,
  kOmpTargetTeamsDistributeParallelForDirective,
  // OpenMP clauses. Map clauses are split by direction for the same reason.
  kOmpCollapseClause,
  kOmpNumThreadsClause,
  kOmpNumTeamsClause,
  kOmpThreadLimitClause,
  kOmpScheduleClause,
  kOmpMapToClause,
  kOmpMapFromClause,
  kOmpMapTofromClause,
  kOmpMapAllocClause,
  kOmpReductionClause,
  kOmpPrivateClause,
  kOmpSharedClause,
  kOmpFirstprivateClause,
  kOmpArraySection,
  kCount,  // sentinel: number of kinds (feature-vector width)
};

constexpr std::size_t kNumNodeKinds = static_cast<std::size_t>(NodeKind::kCount);

std::string_view node_kind_name(NodeKind kind);

class AstNode {
 public:
  AstNode(NodeKind kind, SourceRange range) : kind_(kind), range_(range) {}

  AstNode(const AstNode&) = delete;
  AstNode& operator=(const AstNode&) = delete;

  [[nodiscard]] NodeKind kind() const { return kind_; }
  [[nodiscard]] const SourceRange& range() const { return range_; }
  void set_range(SourceRange range) { range_ = range; }

  [[nodiscard]] std::span<AstNode* const> children() const {
    return {children_, num_children_};
  }
  [[nodiscard]] std::size_t num_children() const { return num_children_; }
  [[nodiscard]] AstNode* child(std::size_t i) const {
    check(i < num_children_, "AST child index out of range");
    return children_[i];
  }
  void set_child(std::size_t i, AstNode* node) {
    check(i < num_children_ && node != nullptr, "bad set_child");
    children_[i] = node;
  }

  /// Terminal nodes are the paper's "syntax tokens".
  [[nodiscard]] bool is_terminal() const { return num_children_ == 0; }

  // --- attributes -------------------------------------------------------
  /// Identifier name, operator spelling, or literal spelling.
  [[nodiscard]] std::string_view text() const { return text_; }
  /// `text` must live as long as the context: a view into its source or
  /// kept text, or a string literal.
  void set_text(std::string_view text) { text_ = text; }

  [[nodiscard]] std::int64_t int_value() const { return int_value_; }
  void set_int_value(std::int64_t v) { int_value_ = v; }

  [[nodiscard]] double float_value() const { return float_value_; }
  void set_float_value(double v) { float_value_ = v; }

  /// For DeclRefExpr: the VarDecl/ParmVarDecl/FunctionDecl it names
  /// (nullptr for unresolved builtins like sqrt).
  [[nodiscard]] AstNode* referenced_decl() const { return referenced_decl_; }
  void set_referenced_decl(AstNode* decl) { referenced_decl_ = decl; }

  [[nodiscard]] const QualType& type() const { return type_; }
  void set_type(const QualType& type) { type_ = type; }

  // --- kind queries -----------------------------------------------------
  [[nodiscard]] bool is(NodeKind k) const { return kind_ == k; }
  [[nodiscard]] bool is_decl() const {
    return kind_ == NodeKind::kFunctionDecl || kind_ == NodeKind::kVarDecl ||
           kind_ == NodeKind::kParmVarDecl;
  }
  [[nodiscard]] bool is_omp_directive() const {
    return kind_ == NodeKind::kOmpParallelForDirective ||
           kind_ == NodeKind::kOmpTargetTeamsDistributeParallelForDirective;
  }
  [[nodiscard]] bool is_omp_clause() const {
    return kind_ >= NodeKind::kOmpCollapseClause &&
           kind_ <= NodeKind::kOmpFirstprivateClause;
  }
  [[nodiscard]] bool is_loop() const {
    return kind_ == NodeKind::kForStmt || kind_ == NodeKind::kWhileStmt ||
           kind_ == NodeKind::kDoStmt;
  }

  // --- structured accessors (precondition-checked) ----------------------
  [[nodiscard]] AstNode* for_init() const { return checked(NodeKind::kForStmt, 0); }
  [[nodiscard]] AstNode* for_cond() const { return checked(NodeKind::kForStmt, 1); }
  [[nodiscard]] AstNode* for_body() const { return checked(NodeKind::kForStmt, 2); }
  [[nodiscard]] AstNode* for_inc() const { return checked(NodeKind::kForStmt, 3); }

  [[nodiscard]] AstNode* if_cond() const { return checked(NodeKind::kIfStmt, 0); }
  [[nodiscard]] AstNode* if_then() const { return checked(NodeKind::kIfStmt, 1); }
  [[nodiscard]] AstNode* if_else() const {
    check(kind_ == NodeKind::kIfStmt, "if_else on non-IfStmt");
    return num_children_ > 2 ? children_[2] : nullptr;
  }

  /// For an OpenMP directive: the associated statement (last child).
  [[nodiscard]] AstNode* omp_body() const {
    check(is_omp_directive() && num_children_ != 0, "omp_body: bad node");
    return children_[num_children_ - 1];
  }

 private:
  friend class AstContext;

  [[nodiscard]] AstNode* checked(NodeKind expect, std::size_t i) const {
    check(kind_ == expect, "structured accessor on wrong node kind");
    return child(i);
  }

  NodeKind kind_;
  std::uint32_t num_children_ = 0;
  SourceRange range_;
  AstNode** children_ = nullptr;
  std::string_view text_;
  std::int64_t int_value_ = 0;
  double float_value_ = 0.0;
  AstNode* referenced_decl_ = nullptr;
  QualType type_;
};

/// Owns everything one parse produces (see the storage note above). Nodes,
/// child spans and text views point into it, so it never moves: it lives
/// behind ParseResult's unique_ptr.
class AstContext {
 public:
  /// Copies `source` into the arena; source() views the copy.
  explicit AstContext(std::string_view source = {});
  AstContext(const AstContext&) = delete;
  AstContext& operator=(const AstContext&) = delete;

  [[nodiscard]] std::string_view source() const { return source_; }

  /// Copies `text` into the arena and returns a view of the copy.
  std::string_view keep(std::string_view text);

  AstNode* create(NodeKind kind, SourceRange range = {});

  /// Gives `node` its children, copied into one arena span. Called once per
  /// node; set_child may replace entries afterwards.
  void set_children(AstNode* node, std::span<AstNode* const> children);
  void set_children(AstNode* node, std::initializer_list<AstNode*> children) {
    set_children(node, std::span<AstNode* const>(children.begin(), children.size()));
  }

  [[nodiscard]] AstNode* root() const { return root_; }
  void set_root(AstNode* root) { root_ = root; }

 private:
  /// `bytes` of storage aligned for any node field; never moves or frees
  /// before the context does.
  void* allocate(std::size_t bytes);

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* next_ = nullptr;
  std::byte* end_ = nullptr;
  std::size_t next_chunk_bytes_ = 0;
  std::string_view source_;
  AstNode* root_ = nullptr;
};

/// Pre-order depth-first visit; `visit(node, depth)` returning false prunes
/// the subtree. Recurses once per tree level; parse_source bounds the depth
/// of the trees it returns (kMaxNestingDepth, parser.hpp).
template <typename Visitor>
void walk(const AstNode* node, Visitor&& visit, int depth = 0) {
  if (node == nullptr) return;
  if (!visit(node, depth)) return;
  for (const AstNode* child : node->children())
    walk(child, visit, depth + 1);
}

/// Counts nodes in a subtree.
std::size_t subtree_size(const AstNode* node);

}  // namespace pg::frontend
