// The AST -> ParaGraph pass: node creation per representation level, the
// eight edge relations, and the paper's edge-weighting rules.
#include "graph/builder.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "frontend/loop_analysis.hpp"
#include "support/check.hpp"

namespace pg::graph {
namespace {

using frontend::AstNode;
using frontend::NodeKind;

class Builder {
 public:
  Builder(const BuildOptions& options) : options_(options) {}

  ProgramGraph build(const AstNode* root) {
    check(root != nullptr, "build_graph: null root");
    add_subtree(root, 1.0, false);
    if (augmented_) {
      add_next_token_edges();
      add_ref_edges();
    }
    return std::move(graph_);
  }

 private:
  /// Recursively adds `node` and its subtree. `multiplier` is the execution
  /// count of the region containing `node`; `divided` marks the loop an
  /// OpenMP directive splits among the parallel workers.
  std::uint32_t add_subtree(const AstNode* node, double multiplier, bool divided) {
    const std::uint32_t id = graph_.add_node(node->kind(), std::string(node->text()));
    if (augmented_) {
      if (node->is_terminal()) terminals_.push_back({node->range().begin.offset, id});
      if (node->is_decl()) decls_.push_back({node, id});
      if (node->is(NodeKind::kDeclRefExpr) && node->referenced_decl() != nullptr)
        refs_.push_back({node->referenced_decl(), id});
    }

    // Children [init, cond, body, inc] of a ForStmt: all but init run once
    // per trip.
    double trips = 1.0;
    if (node->is(NodeKind::kForStmt)) {
      trips = std::max(static_cast<double>(frontend::trip_count_or(
                           node, options_.unknown_trip_fallback)),
                       1.0);
      if (divided) {
        // With collapse the division is applied once, at the outermost loop
        // (equivalent to dividing the collapsed product).
        trips = std::max(1.0, trips / static_cast<double>(std::max<std::int64_t>(
                                          1, options_.parallel_workers)));
      }
    }

    // The children's ids sit on one stack shared by the whole walk; a
    // child's own subtree pops its entries before returning.
    const std::size_t first = child_ids_.size();
    for (std::size_t i = 0; i < node->num_children(); ++i) {
      const AstNode* child = node->child(i);
      double child_multiplier = multiplier;
      bool child_divided = false;

      if (node->is(NodeKind::kForStmt)) {
        if (i != 0) child_multiplier = multiplier * trips;
      } else if (node->is(NodeKind::kWhileStmt) || node->is(NodeKind::kDoStmt)) {
        // Non-canonical loops: bounds don't fold; use the fallback count.
        child_multiplier =
            multiplier * static_cast<double>(options_.unknown_trip_fallback);
      } else if (node->is(NodeKind::kIfStmt) && i >= 1) {
        child_multiplier = multiplier * options_.branch_probability;
      } else if (node->is_omp_directive() && i + 1 == node->num_children() &&
                 child->is(NodeKind::kForStmt)) {
        // The directly associated loop's iteration space is split among the
        // parallel workers.
        child_divided = true;
      }

      child_multiplier = std::min(child_multiplier, options_.max_weight);
      const std::uint32_t child_id = add_subtree(child, child_multiplier, child_divided);
      child_ids_.push_back(child_id);
      const float weight = weighted_ ? static_cast<float>(child_multiplier) : 1.0f;
      graph_.add_edge(id, child_id, EdgeType::kChild, weight);
    }

    if (augmented_) {
      const std::uint32_t* child_ids = child_ids_.data() + first;
      const std::size_t num_children = child_ids_.size() - first;
      // NextSib: consecutive children, left to right.
      for (std::size_t i = 0; i + 1 < num_children; ++i)
        graph_.add_edge(child_ids[i], child_ids[i + 1], EdgeType::kNextSib, 0.0f);

      if (node->is(NodeKind::kForStmt)) {
        check(num_children == 4, "ForStmt must have 4 children");
        const std::uint32_t init = child_ids[0];
        const std::uint32_t cond = child_ids[1];
        const std::uint32_t body = child_ids[2];
        const std::uint32_t inc = child_ids[3];
        graph_.add_edge(init, cond, EdgeType::kForExec, 0.0f);
        graph_.add_edge(cond, body, EdgeType::kForExec, 0.0f);
        graph_.add_edge(body, inc, EdgeType::kForNext, 0.0f);
        graph_.add_edge(inc, cond, EdgeType::kForNext, 0.0f);
      }
      if (node->is(NodeKind::kIfStmt)) {
        graph_.add_edge(child_ids[0], child_ids[1], EdgeType::kConTrue, 0.0f);
        if (num_children > 2)
          graph_.add_edge(child_ids[0], child_ids[2], EdgeType::kConFalse, 0.0f);
      }
    }
    child_ids_.resize(first);
    return id;
  }

  /// Terminals were recorded in pre-order; a stable sort by source offset
  /// puts them in token order and keeps pre-order among equal offsets. The
  /// NextToken tests' reference (tests/ast_terminals.hpp) sorts the same
  /// pre-order walk the same way.
  void add_next_token_edges() {
    std::stable_sort(terminals_.begin(), terminals_.end(),
                     [](const Terminal& a, const Terminal& b) {
                       return a.offset < b.offset;
                     });
    for (std::size_t i = 0; i + 1 < terminals_.size(); ++i)
      graph_.add_edge(terminals_[i].id, terminals_[i + 1].id, EdgeType::kNextToken,
                      0.0f);
  }

  /// The frontend only ever names a Var/ParmVar/FunctionDecl as a
  /// DeclRefExpr's target, so the decls seen are every possible target.
  void add_ref_edges() {
    const auto by_node = [](const Decl& a, const Decl& b) {
      return std::less<const AstNode*>{}(a.node, b.node);
    };
    std::sort(decls_.begin(), decls_.end(), by_node);
    for (const Decl& ref : refs_) {
      const auto it = std::lower_bound(decls_.begin(), decls_.end(), ref, by_node);
      // Declarations outside the built subtree (e.g. globals when building a
      // single function) simply have no Ref edge.
      if (it == decls_.end() || it->node != ref.node) continue;
      graph_.add_edge(ref.id, it->id, EdgeType::kRef, 0.0f);
    }
  }

  struct Terminal {
    std::uint32_t offset;  // source offset of the token
    std::uint32_t id;
  };
  struct Decl {
    const AstNode* node;
    std::uint32_t id;
  };

  const BuildOptions& options_;
  const bool weighted_ = options_.representation == Representation::kParaGraph;
  const bool augmented_ = options_.representation != Representation::kRawAst;
  ProgramGraph graph_;
  std::vector<std::uint32_t> child_ids_;
  std::vector<Terminal> terminals_;
  // Every declaration and its id, sorted by node before Ref resolution.
  std::vector<Decl> decls_;
  // Each resolved DeclRefExpr in pre-order: its target decl and its own id.
  std::vector<Decl> refs_;
};

}  // namespace

std::string_view representation_name(Representation representation) {
  switch (representation) {
    case Representation::kRawAst: return "Raw AST";
    case Representation::kAugmentedAst: return "Augmented AST";
    case Representation::kParaGraph: return "ParaGraph";
  }
  return "<invalid>";
}

ProgramGraph build_graph(const frontend::AstNode* root, const BuildOptions& options) {
  Builder builder(options);
  return builder.build(root);
}

}  // namespace pg::graph
