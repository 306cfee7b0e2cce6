// AST node storage and traversal helpers (kind names, child iteration).
#include "frontend/ast.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <type_traits>

namespace pg::frontend {
namespace {

// Every arena block is a multiple of this, so each one starts aligned for
// any node field.
constexpr std::size_t kArenaAlign = alignof(std::max_align_t);
static_assert(alignof(AstNode) <= kArenaAlign && alignof(AstNode*) <= kArenaAlign);
static_assert(std::is_trivially_destructible_v<AstNode>,
              "the arena never runs node destructors");

std::size_t align_up(std::size_t bytes) {
  return (bytes + kArenaAlign - 1) & ~(kArenaAlign - 1);
}

// A suite kernel of n source bytes makes about n/4 nodes (casts included)
// and fewer child spans. Sizing the first chunk for n/3 nodes, their spans
// and the source copy lets a typical parse allocate one chunk. The cap
// keeps a huge input that is mostly comments from reserving a huge block;
// later chunks double.
constexpr std::size_t kArenaBytesPerSourceByte = (sizeof(AstNode) + 16) / 3 + 1;
constexpr std::size_t kMinChunkBytes = std::size_t{4} << 10;
constexpr std::size_t kMaxFirstChunkBytes = std::size_t{1} << 20;

}  // namespace

AstContext::AstContext(std::string_view source)
    : next_chunk_bytes_(std::clamp(source.size() * kArenaBytesPerSourceByte, kMinChunkBytes,
                                   kMaxFirstChunkBytes)) {
  source_ = keep(source);
}

void* AstContext::allocate(std::size_t bytes) {
  bytes = align_up(bytes);
  if (static_cast<std::size_t>(end_ - next_) < bytes) {
    const std::size_t chunk = std::max(next_chunk_bytes_, bytes);
    chunks_.emplace_back(new std::byte[chunk]);
    next_ = chunks_.back().get();
    end_ = next_ + chunk;
    next_chunk_bytes_ = 2 * chunk;
  }
  void* out = next_;
  next_ += bytes;
  return out;
}

std::string_view AstContext::keep(std::string_view text) {
  if (text.empty()) return {};
  auto* copy = static_cast<char*>(allocate(text.size()));
  std::memcpy(copy, text.data(), text.size());
  return {copy, text.size()};
}

AstNode* AstContext::create(NodeKind kind, SourceRange range) {
  return new (allocate(sizeof(AstNode))) AstNode(kind, range);
}

void AstContext::set_children(AstNode* node, std::span<AstNode* const> children) {
  check(node->children_ == nullptr && node->num_children_ == 0,
        "set_children called twice on one node");
  for (AstNode* child : children) check(child != nullptr, "null AST child");
  if (children.empty()) return;
  auto** span = static_cast<AstNode**>(allocate(children.size() * sizeof(AstNode*)));
  std::copy(children.begin(), children.end(), span);
  node->children_ = span;
  node->num_children_ = static_cast<std::uint32_t>(children.size());
}

std::string_view node_kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::kTranslationUnit: return "TranslationUnit";
    case NodeKind::kFunctionDecl: return "FunctionDecl";
    case NodeKind::kParmVarDecl: return "ParmVarDecl";
    case NodeKind::kVarDecl: return "VarDecl";
    case NodeKind::kDeclStmt: return "DeclStmt";
    case NodeKind::kCompoundStmt: return "CompoundStmt";
    case NodeKind::kForStmt: return "ForStmt";
    case NodeKind::kWhileStmt: return "WhileStmt";
    case NodeKind::kDoStmt: return "DoStmt";
    case NodeKind::kIfStmt: return "IfStmt";
    case NodeKind::kReturnStmt: return "ReturnStmt";
    case NodeKind::kBreakStmt: return "BreakStmt";
    case NodeKind::kContinueStmt: return "ContinueStmt";
    case NodeKind::kNullStmt: return "NullStmt";
    case NodeKind::kBinaryOperator: return "BinaryOperator";
    case NodeKind::kCompoundAssignOperator: return "CompoundAssignOperator";
    case NodeKind::kUnaryOperator: return "UnaryOperator";
    case NodeKind::kConditionalOperator: return "ConditionalOperator";
    case NodeKind::kCallExpr: return "CallExpr";
    case NodeKind::kArraySubscriptExpr: return "ArraySubscriptExpr";
    case NodeKind::kDeclRefExpr: return "DeclRefExpr";
    case NodeKind::kImplicitCastExpr: return "ImplicitCastExpr";
    case NodeKind::kParenExpr: return "ParenExpr";
    case NodeKind::kIntegerLiteral: return "IntegerLiteral";
    case NodeKind::kFloatingLiteral: return "FloatingLiteral";
    case NodeKind::kCharacterLiteral: return "CharacterLiteral";
    case NodeKind::kStringLiteral: return "StringLiteral";
    case NodeKind::kInitListExpr: return "InitListExpr";
    case NodeKind::kOmpParallelForDirective: return "OmpParallelForDirective";
    case NodeKind::kOmpTargetTeamsDistributeParallelForDirective:
      return "OmpTargetTeamsDistributeParallelForDirective";
    case NodeKind::kOmpCollapseClause: return "OmpCollapseClause";
    case NodeKind::kOmpNumThreadsClause: return "OmpNumThreadsClause";
    case NodeKind::kOmpNumTeamsClause: return "OmpNumTeamsClause";
    case NodeKind::kOmpThreadLimitClause: return "OmpThreadLimitClause";
    case NodeKind::kOmpScheduleClause: return "OmpScheduleClause";
    case NodeKind::kOmpMapToClause: return "OmpMapToClause";
    case NodeKind::kOmpMapFromClause: return "OmpMapFromClause";
    case NodeKind::kOmpMapTofromClause: return "OmpMapTofromClause";
    case NodeKind::kOmpMapAllocClause: return "OmpMapAllocClause";
    case NodeKind::kOmpReductionClause: return "OmpReductionClause";
    case NodeKind::kOmpPrivateClause: return "OmpPrivateClause";
    case NodeKind::kOmpSharedClause: return "OmpSharedClause";
    case NodeKind::kOmpFirstprivateClause: return "OmpFirstprivateClause";
    case NodeKind::kOmpArraySection: return "OmpArraySection";
    case NodeKind::kCount: break;
  }
  return "<invalid>";
}

std::size_t subtree_size(const AstNode* node) {
  std::size_t count = 0;
  walk(node, [&count](const AstNode*, int) {
    ++count;
    return true;
  });
  return count;
}

}  // namespace pg::frontend
