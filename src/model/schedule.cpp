#include "model/schedule.hpp"

#include <algorithm>

namespace pg::model::schedule {

std::uint64_t graph_cost(std::size_t nodes, std::size_t edges) {
  return kGraphCost + kNodeCost * static_cast<std::uint64_t>(nodes) +
         kEdgeCost * static_cast<std::uint64_t>(edges);
}

std::uint64_t graph_cost(const EncodedGraph& graph) {
  return graph_cost(graph.num_nodes(), graph.relations.num_edges());
}

void partition_by_cost(std::span<const std::uint64_t> costs,
                       std::uint64_t target_cost, std::size_t max_graphs,
                       std::vector<std::uint32_t>& bounds) {
  bounds.clear();
  bounds.push_back(0);
  if (costs.empty()) return;
  const std::uint64_t target = std::max<std::uint64_t>(target_cost, 1);
  const std::size_t cap = std::max<std::size_t>(max_graphs, 1);
  std::uint64_t acc = 0;
  std::size_t in_chunk = 0;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    // Close the open chunk before graph i when i would overflow it. A chunk
    // never closes empty, so a single graph above target still lands.
    if (in_chunk > 0 && (in_chunk >= cap || acc + costs[i] > target)) {
      bounds.push_back(static_cast<std::uint32_t>(i));
      acc = 0;
      in_chunk = 0;
    }
    acc += costs[i];
    ++in_chunk;
  }
  bounds.push_back(static_cast<std::uint32_t>(costs.size()));
}

std::uint64_t chunk_cost(std::span<const std::uint64_t> costs,
                         std::uint32_t lo, std::uint32_t hi) {
  std::uint64_t sum = 0;
  for (std::uint32_t i = lo; i < hi; ++i) sum += costs[i];
  return sum;
}

double plan_imbalance(std::span<const std::uint64_t> costs,
                      std::span<const std::uint32_t> bounds) {
  if (bounds.size() < 2) return 1.0;
  const std::size_t num_chunks = bounds.size() - 1;
  std::uint64_t total = 0;
  std::uint64_t worst = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::uint64_t cost = chunk_cost(costs, bounds[c], bounds[c + 1]);
    total += cost;
    worst = std::max(worst, cost);
  }
  if (total == 0) return 1.0;
  return static_cast<double>(worst) * static_cast<double>(num_chunks) /
         static_cast<double>(total);
}

}  // namespace pg::model::schedule
