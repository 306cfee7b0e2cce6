// Randomized robustness test for the frontend: ~1k seeded-random mutations
// (truncations, byte flips, token splices, insertions, deletions) of the
// golden-corpus kernels and suite kernels are fed to the lexer/parser. The
// contract: parse_source always *returns* — malformed input produces clean
// Diagnostics errors, never a crash, throw, or UB (the suite runs under the
// ASan+UBSan CI job, which turns latent UB into failures here).
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "frontend/parser.hpp"
#include "frontend_mutations.hpp"

namespace pg {
namespace {

TEST(FrontendRobustness, SeededMutationsNeverCrashTheParser) {
  const std::vector<std::string> sources = test::seed_sources();
  ASSERT_FALSE(sources.empty());

  // The first 1000 inputs stack 1-3 mutations so errors can compound.
  const std::vector<std::string> inputs = test::seeded_mutations(sources);
  constexpr int kIterations = 1000;
  int parsed_ok = 0;
  int rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string& mutated = inputs[i];
    frontend::ParseResult result;
    ASSERT_NO_THROW(result = frontend::parse_source(mutated))
        << "iteration " << i << " threw on:\n"
        << mutated;
    if (result.ok()) {
      ++parsed_ok;
    } else {
      // A failed parse must explain itself through Diagnostics (or yield no
      // root at all) — root==nullptr with empty diagnostics would be a
      // silent failure.
      EXPECT_TRUE(result.diagnostics.has_errors() || result.root() != nullptr)
          << "iteration " << i << ": silent failure on:\n"
          << mutated;
      ++rejected;
    }
  }
  // Sanity: the mutator actually produces both outcomes at this seed.
  EXPECT_GT(parsed_ok, 0);
  EXPECT_GT(rejected, kIterations / 4);
}

TEST(FrontendRobustness, ParseOfMutatedInputIsDeterministic) {
  // Same hostile bytes -> same verdict and same number of diagnostics: the
  // parser keeps no hidden state across calls even on malformed input.
  const std::vector<std::string> inputs = test::seeded_mutations(test::seed_sources());
  for (int i = 0; i < 50; ++i) {
    const std::string& mutated = inputs[1000 + i];
    const frontend::ParseResult a = frontend::parse_source(mutated);
    const frontend::ParseResult b = frontend::parse_source(mutated);
    EXPECT_EQ(a.ok(), b.ok()) << "iteration " << i;
    EXPECT_EQ(a.diagnostics.entries().size(), b.diagnostics.entries().size())
        << "iteration " << i;
  }
}

TEST(FrontendRobustness, EmptyAndDegenerateInputs) {
  using namespace std::string_view_literals;
  // string_view literals so embedded NUL bytes keep their length (a plain
  // const char* would truncate "\x00..." to an empty string).
  for (const std::string_view source :
       {""sv, " "sv, "\n"sv, "\x00"sv, "a\x00int b;"sv, "#"sv, "#pragma"sv,
        "\xff\xfe"sv, "void"sv, "void f"sv, "void f("sv, "/*"sv, "//"sv,
        "\""sv, "'"sv, "0x"sv, "1e"sv,
        "(((((((((((((((((((((((((((((((("sv,
        "#pragma omp parallel for"sv}) {
    EXPECT_NO_THROW((void)frontend::parse_source(source))
        << "input: " << source;
  }
}

}  // namespace
}  // namespace pg
