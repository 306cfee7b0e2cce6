// Round-trip and ordering properties over every kernel in the suite:
// graph serialisation is lossless, NextToken chains follow source order,
// AST dumps are well-formed, and the frontend is deterministic.
#include <gtest/gtest.h>

#include <sstream>

#include "dataset/kernel_spec.hpp"
#include "dataset/variants.hpp"
#include "frontend/ast_dump.hpp"
#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "ast_terminals.hpp"

namespace pg {
namespace {

std::string suite_source(std::size_t index) {
  const auto& spec = dataset::benchmark_suite()[index];
  const auto variant = spec.collapsible ? dataset::Variant::kGpuCollapseMem
                                        : dataset::Variant::kGpuMem;
  return dataset::instantiate_source(spec, variant, spec.default_sizes.front(),
                                     128, 128);
}

class SuiteRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SuiteRoundTrip, GraphSerialisationIsLossless) {
  const auto parsed = frontend::parse_source(suite_source(GetParam()));
  ASSERT_TRUE(parsed.ok());
  const auto g = graph::build_graph(parsed.root(), {});

  std::stringstream buffer;
  g.serialize(buffer);
  const auto g2 = graph::ProgramGraph::deserialize(buffer);

  ASSERT_EQ(g2.num_nodes(), g.num_nodes());
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  for (std::size_t i = 0; i < g.num_edges(); ++i)
    EXPECT_EQ(g2.edges()[i], g.edges()[i]) << "edge " << i;
  for (std::size_t i = 0; i < g.num_nodes(); ++i)
    EXPECT_EQ(g2.nodes()[i].kind, g.nodes()[i].kind) << "node " << i;
}

TEST_P(SuiteRoundTrip, NextTokenChainFollowsSourceOrder) {
  const auto parsed = frontend::parse_source(suite_source(GetParam()));
  ASSERT_TRUE(parsed.ok());
  const auto terminals = test::terminals_in_token_order(parsed.root());
  ASSERT_GE(terminals.size(), 10u);
  for (std::size_t i = 1; i < terminals.size(); ++i)
    EXPECT_LE(terminals[i - 1]->range().begin.offset,
              terminals[i]->range().begin.offset);
}

TEST_P(SuiteRoundTrip, ParseIsDeterministic) {
  const std::string source = suite_source(GetParam());
  const auto a = frontend::parse_source(source);
  const auto b = frontend::parse_source(source);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Same dump <=> same tree shape, kinds, names, and literal values.
  EXPECT_EQ(frontend::dump_ast(a.root()), frontend::dump_ast(b.root()));
}

TEST_P(SuiteRoundTrip, DumpMentionsTheKernelFunction) {
  const auto& spec = dataset::benchmark_suite()[GetParam()];
  const auto parsed = frontend::parse_source(suite_source(GetParam()));
  ASSERT_TRUE(parsed.ok());
  const std::string dump = frontend::dump_ast(parsed.root());
  EXPECT_NE(dump.find("FunctionDecl"), std::string::npos);
  EXPECT_NE(dump.find("OmpTargetTeamsDistributeParallelForDirective"),
            std::string::npos)
      << spec.kernel;
}

TEST_P(SuiteRoundTrip, GraphBuildIsDeterministic) {
  const auto parsed = frontend::parse_source(suite_source(GetParam()));
  ASSERT_TRUE(parsed.ok());
  const auto a = graph::build_graph(parsed.root(), {});
  const auto b = graph::build_graph(parsed.root(), {});
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.num_edges(); ++i)
    EXPECT_EQ(a.edges()[i], b.edges()[i]);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, SuiteRoundTrip,
                         ::testing::Range<std::size_t>(0, 17),
                         [](const auto& info) {
                           return dataset::benchmark_suite()[info.param].kernel;
                         });

}  // namespace
}  // namespace pg
