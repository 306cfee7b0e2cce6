// Tests for ParaGraph construction: edge relations, weighting rules
// (paper §III-A, Figure 2), ablation levels, and structural invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <sstream>

#include "dataset/kernel_spec.hpp"
#include "dataset/variants.hpp"
#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "model/encoding.hpp"
#include "sim/platform.hpp"

namespace pg::graph {
namespace {

using frontend::NodeKind;

ProgramGraph build(const std::string& source, BuildOptions options = {}) {
  auto r = frontend::parse_source(source);
  EXPECT_TRUE(r.ok()) << r.diagnostics.summary();
  return build_graph(r.root(), options);
}

/// All edges of one type.
std::vector<GraphEdge> edges_of(const ProgramGraph& g, EdgeType type) {
  std::vector<GraphEdge> out;
  for (const auto& e : g.edges())
    if (e.type == type) out.push_back(e);
  return out;
}

constexpr const char* kLoopKernel = R"(
void f(void) {
  for (int i = 0; i < 50; i++) {
    double x = 1.0;
  }
}
)";

constexpr const char* kIfKernel = R"(
void f(int c) {
  if (c > 0) {
    int a = 1;
  } else {
    int b = 2;
  }
}
)";

// --------------------------------------------------------------- basics ---

TEST(GraphBuilder, EveryAstNodeBecomesAGraphNode) {
  auto r = frontend::parse_source(kLoopKernel);
  ASSERT_TRUE(r.ok());
  const auto g = build_graph(r.root(), {});
  EXPECT_EQ(g.num_nodes(), frontend::subtree_size(r.root()));
}

TEST(GraphBuilder, ChildEdgesFormATree) {
  const auto g = build(kLoopKernel);
  const auto degree = g.child_in_degree();
  // Root has in-degree 0; every other node exactly 1.
  std::size_t roots = 0;
  for (std::size_t i = 0; i < degree.size(); ++i) {
    if (degree[i] == 0) ++roots;
    else EXPECT_EQ(degree[i], 1u) << "node " << i;
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(edges_of(g, EdgeType::kChild).size(), g.num_nodes() - 1);
}

TEST(GraphBuilder, NonChildEdgesHaveZeroWeight) {
  const auto g = build(kLoopKernel);
  for (const auto& e : g.edges()) {
    if (e.type != EdgeType::kChild) {
      EXPECT_EQ(e.weight, 0.0f);
    }
  }
}

// ------------------------------------------------------------ ablations ---

TEST(GraphBuilder, RawAstHasOnlyChildEdges) {
  BuildOptions options;
  options.representation = Representation::kRawAst;
  const auto g = build(kLoopKernel, options);
  const auto histogram = g.edge_type_histogram();
  for (std::size_t t = 1; t < kNumEdgeTypes; ++t) EXPECT_EQ(histogram[t], 0u);
  EXPECT_GT(histogram[0], 0u);
  for (const auto& e : g.edges()) EXPECT_EQ(e.weight, 1.0f);
}

TEST(GraphBuilder, AugmentedAstHasRelationsButUnitWeights) {
  BuildOptions options;
  options.representation = Representation::kAugmentedAst;
  const auto g = build(kLoopKernel, options);
  EXPECT_FALSE(edges_of(g, EdgeType::kForExec).empty());
  for (const auto& e : edges_of(g, EdgeType::kChild)) EXPECT_EQ(e.weight, 1.0f);
}

TEST(GraphBuilder, ParaGraphHasWeights) {
  const auto g = build(kLoopKernel);
  EXPECT_EQ(g.max_child_weight(), 50.0f);
}

TEST(GraphBuilder, RepresentationNames) {
  EXPECT_EQ(representation_name(Representation::kRawAst), "Raw AST");
  EXPECT_EQ(representation_name(Representation::kAugmentedAst), "Augmented AST");
  EXPECT_EQ(representation_name(Representation::kParaGraph), "ParaGraph");
}

// ------------------------------------------------- loop edges & weights ---

TEST(GraphBuilder, ForStmtGetsForExecAndForNextEdges) {
  const auto g = build(kLoopKernel);
  // init->cond, cond->body; body->inc, inc->cond.
  EXPECT_EQ(edges_of(g, EdgeType::kForExec).size(), 2u);
  EXPECT_EQ(edges_of(g, EdgeType::kForNext).size(), 2u);
}

TEST(GraphBuilder, ForNextFormsCycleThroughCond) {
  const auto g = build(kLoopKernel);
  const auto exec = edges_of(g, EdgeType::kForExec);
  const auto next = edges_of(g, EdgeType::kForNext);
  // cond is the dst of one ForNext and src of one ForExec.
  bool found_cycle = false;
  for (const auto& n : next)
    for (const auto& e : exec)
      if (n.dst == e.src) found_cycle = true;
  EXPECT_TRUE(found_cycle);
}

TEST(GraphBuilder, LoopWeightsMatchPaperFigure2) {
  // for (50 trips): init gets weight 1; cond/body/inc get 50.
  auto r = frontend::parse_source(kLoopKernel);
  ASSERT_TRUE(r.ok());
  const auto g = build_graph(r.root(), {});
  // Identify the ForStmt node and its outgoing child weights in order.
  std::int64_t for_node = -1;
  for (std::size_t i = 0; i < g.num_nodes(); ++i)
    if (g.nodes()[i].kind == NodeKind::kForStmt) for_node = i;
  ASSERT_NE(for_node, -1);
  std::vector<float> weights;
  for (const auto& e : g.edges())
    if (e.type == EdgeType::kChild && e.src == for_node)
      weights.push_back(e.weight);
  ASSERT_EQ(weights.size(), 4u);
  EXPECT_EQ(weights[0], 1.0f);    // init
  EXPECT_EQ(weights[1], 50.0f);   // cond
  EXPECT_EQ(weights[2], 50.0f);   // body
  EXPECT_EQ(weights[3], 50.0f);   // inc
}

TEST(GraphBuilder, NestedLoopWeightsMultiply) {
  const auto g = build(R"(
    void f(void) {
      for (int i = 0; i < 10; i++) {
        for (int j = 0; j < 20; j++) {
          double x = 1.0;
        }
      }
    }
  )");
  // Edge into the inner VarDecl 'x': 10 * 20 = 200.
  EXPECT_EQ(g.max_child_weight(), 200.0f);
}

TEST(GraphBuilder, IfBranchWeightsHalved) {
  // Inside a 50-trip loop, if branches carry 25 (Figure 2).
  const auto g = build(R"(
    void f(int c) {
      for (int i = 0; i < 50; i++) {
        if (c > 0) {
          int a = 1;
        } else {
          int b = 2;
        }
      }
    }
  )");
  std::int64_t if_node = -1;
  for (std::size_t i = 0; i < g.num_nodes(); ++i)
    if (g.nodes()[i].kind == NodeKind::kIfStmt) if_node = i;
  ASSERT_NE(if_node, -1);
  std::vector<float> weights;
  for (const auto& e : g.edges())
    if (e.type == EdgeType::kChild && e.src == if_node) weights.push_back(e.weight);
  ASSERT_EQ(weights.size(), 3u);
  EXPECT_EQ(weights[0], 50.0f);  // condition: evaluated every iteration
  EXPECT_EQ(weights[1], 25.0f);  // then
  EXPECT_EQ(weights[2], 25.0f);  // else
}

TEST(GraphBuilder, ConTrueConFalseEdges) {
  const auto g = build(kIfKernel);
  EXPECT_EQ(edges_of(g, EdgeType::kConTrue).size(), 1u);
  EXPECT_EQ(edges_of(g, EdgeType::kConFalse).size(), 1u);
}

TEST(GraphBuilder, IfWithoutElseHasNoConFalse) {
  const auto g = build("void f(int c) { if (c > 0) { int a = 1; } }");
  EXPECT_EQ(edges_of(g, EdgeType::kConTrue).size(), 1u);
  EXPECT_TRUE(edges_of(g, EdgeType::kConFalse).empty());
}

TEST(GraphBuilder, StaticScheduleDividesByWorkers) {
  // Paper: 100 iterations, 4 threads -> body weight 25.
  BuildOptions options;
  options.parallel_workers = 4;
  const auto g = build(R"(
    double v[100];
    void f(void) {
      #pragma omp parallel for num_threads(4) schedule(static)
      for (int i = 0; i < 100; i++) {
        v[i] = 0.0;
      }
    }
  )", options);
  EXPECT_EQ(g.max_child_weight(), 25.0f);
}

TEST(GraphBuilder, DivisionOnlyAppliesToDirectiveLoop) {
  // Inner (non-distributed) loop keeps its full trip multiplier.
  BuildOptions options;
  options.parallel_workers = 10;
  const auto g = build(R"(
    double v[100];
    void f(void) {
      #pragma omp parallel for num_threads(10) schedule(static)
      for (int i = 0; i < 100; i++) {
        for (int j = 0; j < 7; j++) {
          v[i] = v[i] + 1.0;
        }
      }
    }
  )", options);
  // 100/10 * 7 = 70.
  EXPECT_EQ(g.max_child_weight(), 70.0f);
}

TEST(GraphBuilder, WorkerDivisionNeverDropsBelowOne) {
  BuildOptions options;
  options.parallel_workers = 1000;
  const auto g = build(R"(
    double v[8];
    void f(void) {
      #pragma omp parallel for num_threads(4) schedule(static)
      for (int i = 0; i < 8; i++) { v[i] = 0.0; }
    }
  )", options);
  EXPECT_GE(g.max_child_weight(), 1.0f);
}

TEST(GraphBuilder, UnknownTripUsesFallback) {
  BuildOptions options;
  options.unknown_trip_fallback = 31;
  const auto g = build(R"(
    void f(int n) {
      for (int i = 0; i < n; i++) {
        double x = 1.0;
      }
    }
  )", options);
  EXPECT_EQ(g.max_child_weight(), 31.0f);
}

TEST(GraphBuilder, WhileLoopUsesFallback) {
  BuildOptions options;
  options.unknown_trip_fallback = 11;
  const auto g = build(R"(
    void f(int n) {
      while (n > 0) {
        n = n - 1;
      }
    }
  )", options);
  EXPECT_EQ(g.max_child_weight(), 11.0f);
}

TEST(GraphBuilder, WeightCapRespected) {
  BuildOptions options;
  options.max_weight = 1e6;
  const auto g = build(R"(
    void f(void) {
      for (int i = 0; i < 10000; i++)
        for (int j = 0; j < 10000; j++)
          for (int k = 0; k < 10000; k++) {
            double x = 1.0;
          }
    }
  )", options);
  EXPECT_LE(g.max_child_weight(), 1e6f);
}

// ------------------------------------------------------- token & sibs -----

TEST(GraphBuilder, NextTokenChainsTerminalsLeftToRight) {
  const auto g = build("void f(void) { int a = 1; int b = 2; }");
  const auto next_token = edges_of(g, EdgeType::kNextToken);
  std::size_t terminals = 0;
  const auto child_out = [&] {
    std::vector<std::size_t> out_deg(g.num_nodes(), 0);
    for (const auto& e : g.edges())
      if (e.type == EdgeType::kChild) ++out_deg[e.src];
    return out_deg;
  }();
  for (std::size_t i = 0; i < g.num_nodes(); ++i)
    if (child_out[i] == 0) ++terminals;
  EXPECT_EQ(next_token.size(), terminals - 1);

  // The chain is a simple path: every node has <= 1 in and <= 1 out.
  std::vector<int> in_deg(g.num_nodes(), 0), out_deg(g.num_nodes(), 0);
  for (const auto& e : next_token) {
    ++out_deg[e.src];
    ++in_deg[e.dst];
  }
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    EXPECT_LE(in_deg[i], 1);
    EXPECT_LE(out_deg[i], 1);
  }
}

TEST(GraphBuilder, NextSibConnectsConsecutiveChildren) {
  const auto g = build(kLoopKernel);
  // ForStmt has 4 children -> 3 NextSib edges among them; plus others.
  std::int64_t for_node = -1;
  for (std::size_t i = 0; i < g.num_nodes(); ++i)
    if (g.nodes()[i].kind == NodeKind::kForStmt) for_node = i;
  std::vector<std::uint32_t> for_children;
  for (const auto& e : g.edges())
    if (e.type == EdgeType::kChild && e.src == for_node)
      for_children.push_back(e.dst);
  int sib_edges = 0;
  for (const auto& e : edges_of(g, EdgeType::kNextSib)) {
    for (std::size_t i = 0; i + 1 < for_children.size(); ++i)
      if (e.src == for_children[i] && e.dst == for_children[i + 1]) ++sib_edges;
  }
  EXPECT_EQ(sib_edges, 3);
}

TEST(GraphBuilder, RefEdgesPointAtDeclarations) {
  const auto g = build("void f(void) { int a = 1; int b; b = a + a; }");
  const auto refs = edges_of(g, EdgeType::kRef);
  EXPECT_GE(refs.size(), 3u);  // b, a, a
  for (const auto& e : refs) {
    EXPECT_EQ(g.node(e.src).kind, NodeKind::kDeclRefExpr);
    const auto dst_kind = g.node(e.dst).kind;
    EXPECT_TRUE(dst_kind == NodeKind::kVarDecl ||
                dst_kind == NodeKind::kParmVarDecl ||
                dst_kind == NodeKind::kFunctionDecl);
  }
}

// ------------------------------------------------------- serialisation ---

TEST(ProgramGraph, SerializeRoundTrip) {
  const auto g = build(kLoopKernel);
  std::stringstream buffer;
  g.serialize(buffer);
  const auto g2 = ProgramGraph::deserialize(buffer);
  ASSERT_EQ(g2.num_nodes(), g.num_nodes());
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  for (std::size_t i = 0; i < g.num_edges(); ++i)
    EXPECT_EQ(g2.edges()[i], g.edges()[i]);
  for (std::size_t i = 0; i < g.num_nodes(); ++i)
    EXPECT_EQ(g2.nodes()[i].kind, g.nodes()[i].kind);
}

TEST(ProgramGraph, DeserializeRejectsBadHeader) {
  std::stringstream buffer("not-a-graph 0 0\n");
  EXPECT_THROW(ProgramGraph::deserialize(buffer), InternalError);
}

TEST(ProgramGraph, DotOutputMentionsNodesAndColors) {
  const auto g = build(kIfKernel);
  std::stringstream dot;
  g.write_dot(dot);
  const std::string out = dot.str();
  EXPECT_NE(out.find("digraph ParaGraph"), std::string::npos);
  EXPECT_NE(out.find("IfStmt"), std::string::npos);
  EXPECT_NE(out.find("forestgreen"), std::string::npos);  // ConTrue colour
}

TEST(ProgramGraph, EdgeEndpointValidation) {
  ProgramGraph g;
  const auto a = g.add_node(NodeKind::kVarDecl);
  EXPECT_THROW(g.add_edge(a, 99, EdgeType::kChild, 1.0f), InternalError);
  EXPECT_THROW(g.add_edge(a, a, EdgeType::kChild, -1.0f), InternalError);
}

// ------------------------------------------------ builder + encoder pin ---

/// FNV-1a 64, fed field by field.
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
  template <typename T>
  void array(const std::vector<T>& v) {
    value(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }
  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void hash_graph(Fnv& h, const ProgramGraph& g) {
  h.value(g.num_nodes());
  for (const GraphNode& n : g.nodes()) {
    h.value(n.kind);
    h.value(n.label.size());
    h.bytes(n.label.data(), n.label.size());
  }
  h.value(g.num_edges());
  for (const GraphEdge& e : g.edges()) {
    h.value(e.src);
    h.value(e.dst);
    h.value(e.type);
    h.value(std::bit_cast<std::uint32_t>(e.weight));
  }
}

void hash_encoding(Fnv& h, const model::EncodedGraph& enc) {
  h.array(enc.kinds);
  h.array(enc.literals);
  h.value(enc.relations.num_nodes);
  h.value(enc.relations.relations.size());
  for (const nn::RelationEdges& rel : enc.relations.relations) {
    h.array(rel.src_local);
    h.array(rel.gate);
    h.array(rel.nodes);
    h.array(rel.group_offsets);
    h.array(rel.group_dst);
  }
}

TEST(Builder, GraphsAndEncodingsMatchRecordedHash) {
  // Byte pin of build_graph and encode_graph over the advisor's whole
  // candidate space: every suite kernel, every applicable CPU and GPU
  // variant at the advise launch configurations, all three
  // representations and the first and last sweep sizes. Recorded before
  // the builder and the encoder became counting passes; a pure speed
  // change to either must not move it.
  const std::vector<std::int64_t> cpu_threads = {8, sim::summit_power9().cores};
  const std::vector<std::pair<std::int64_t, std::int64_t>> gpu_configs = {
      {64, 128}, {256, 256}, {1024, 256}};
  Fnv graphs, encodings;
  std::size_t cases = 0;
  for (const dataset::KernelSpec& spec : dataset::benchmark_suite()) {
    for (const dataset::SizePoint* size :
         {&spec.default_sizes.front(), &spec.default_sizes.back()}) {
      for (const bool gpu : {false, true}) {
        std::vector<std::pair<std::int64_t, std::int64_t>> configs;
        if (gpu) configs = gpu_configs;
        else
          for (const std::int64_t t : cpu_threads) configs.emplace_back(1, t);
        for (const dataset::Variant variant :
             dataset::applicable_variants(spec, gpu)) {
          for (const auto& [teams, threads] : configs) {
            const auto parsed = frontend::parse_source(dataset::instantiate_source(
                spec, variant, *size, teams, threads));
            ASSERT_TRUE(parsed.ok()) << spec.kernel;
            for (const Representation representation :
                 {Representation::kRawAst, Representation::kAugmentedAst,
                  Representation::kParaGraph}) {
              BuildOptions options;
              options.representation = representation;
              options.parallel_workers =
                  std::max<std::int64_t>(1, gpu ? teams * threads : threads);
              const ProgramGraph g = build_graph(parsed.root(), options);
              hash_graph(graphs, g);
              // Half the largest weight, so some Child gates clamp to 1.
              const double scale =
                  std::max(1.0, 0.5 * static_cast<double>(g.max_child_weight()));
              hash_encoding(encodings, model::encode_graph(g, scale));
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 1104u);
  EXPECT_EQ(graphs.digest(), 0xe0a7adcff8126555ULL) << "0x" << std::hex << graphs.digest();
  EXPECT_EQ(encodings.digest(), 0x27356917a159677fULL) << "0x" << std::hex << encodings.digest();
}

// --------------------------------------- property sweep over the suite ---

struct SuiteCase {
  std::size_t kernel_index;
  dataset::Variant variant;
};

class SuiteGraphInvariants
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(SuiteGraphInvariants, HoldForEveryKernelVariant) {
  const auto& suite = dataset::benchmark_suite();
  const std::size_t kernel_index = std::get<0>(GetParam());
  const auto variant = static_cast<dataset::Variant>(std::get<1>(GetParam()));
  const auto& spec = suite[kernel_index];
  if (dataset::variant_has_collapse(variant) && !spec.collapsible)
    GTEST_SKIP() << "variant not applicable";

  const std::string source = dataset::instantiate_source(
      spec, variant, spec.default_sizes.front(), 64, 64);
  auto parsed = frontend::parse_source(source);
  ASSERT_TRUE(parsed.ok()) << spec.kernel << ": " << parsed.diagnostics.summary();

  BuildOptions options;
  options.parallel_workers = 64;
  const auto g = build_graph(parsed.root(), options);

  // Tree invariant.
  const auto degree = g.child_in_degree();
  std::size_t roots = 0;
  for (const std::size_t d : degree) roots += (d == 0);
  EXPECT_EQ(roots, 1u);

  // Weighted representation must carry loop information.
  EXPECT_GT(g.max_child_weight(), 1.0f) << spec.kernel;

  // All 4 structural relation families present for loop kernels.
  const auto histogram = g.edge_type_histogram();
  EXPECT_GT(histogram[static_cast<std::size_t>(EdgeType::kNextToken)], 0u);
  EXPECT_GT(histogram[static_cast<std::size_t>(EdgeType::kNextSib)], 0u);
  EXPECT_GT(histogram[static_cast<std::size_t>(EdgeType::kRef)], 0u);
  EXPECT_GT(histogram[static_cast<std::size_t>(EdgeType::kForExec)], 0u);

  // Non-child weights all zero; child weights all >= something sane.
  for (const auto& e : g.edges()) {
    if (e.type == EdgeType::kChild) {
      EXPECT_GT(e.weight, 0.0f);
    } else {
      EXPECT_EQ(e.weight, 0.0f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllVariants, SuiteGraphInvariants,
    ::testing::Combine(::testing::Range<std::size_t>(0, 17),
                       ::testing::Range(0, 6)),
    [](const auto& info) {
      const auto& suite = dataset::benchmark_suite();
      return suite[std::get<0>(info.param)].kernel + "_" +
             std::string(dataset::variant_name(
                 static_cast<dataset::Variant>(std::get<1>(info.param))));
    });

}  // namespace
}  // namespace pg::graph
