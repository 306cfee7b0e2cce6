// Reference token order for the NextToken tests: the AST's terminal nodes
// ("syntax tokens") in source order, ties kept in pre-order. The graph
// builder orders its NextToken chain the same way.
#pragma once

#include <algorithm>
#include <vector>

#include "frontend/ast.hpp"

namespace pg::test {

inline std::vector<const frontend::AstNode*> terminals_in_token_order(
    const frontend::AstNode* root) {
  std::vector<const frontend::AstNode*> terminals;
  frontend::walk(root, [&terminals](const frontend::AstNode* node, int) {
    if (node->is_terminal()) terminals.push_back(node);
    return true;
  });
  std::stable_sort(terminals.begin(), terminals.end(),
                   [](const frontend::AstNode* a, const frontend::AstNode* b) {
                     return a->range().begin.offset < b->range().begin.offset;
                   });
  return terminals;
}

}  // namespace pg::test
