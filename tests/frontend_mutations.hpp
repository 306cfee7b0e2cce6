// Seeded hostile inputs for the frontend, shared by the robustness suite and
// the parser's AST pin: the golden-corpus kernels plus one instantiation of
// every suite kernel, and a crude mutator (truncations, byte flips, token
// splices, insertions, deletions, digit bombing). Needs PG_GOLDEN_DIR.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dataset/kernel_spec.hpp"
#include "dataset/variants.hpp"
#include "support/rng.hpp"

#ifndef PG_GOLDEN_DIR
#error "PG_GOLDEN_DIR must point at tests/golden"
#endif

namespace pg::test {

inline std::vector<std::string> seed_sources() {
  std::vector<std::string> sources;
  // The four golden corpus kernels, read from disk.
  for (const char* name : {"matvec_cpu", "matmul_gpu_collapse_mem",
                           "corr_gpu_mem", "gauss_seidel_cpu_collapse"}) {
    std::ifstream is(std::string(PG_GOLDEN_DIR) + "/" + name + ".c");
    EXPECT_TRUE(static_cast<bool>(is)) << name;
    std::ostringstream buffer;
    buffer << is.rdbuf();
    sources.push_back(buffer.str());
  }
  // One instantiation of every suite kernel for syntax diversity.
  for (const auto& spec : dataset::benchmark_suite()) {
    const auto variant = spec.collapsible ? dataset::Variant::kGpuCollapseMem
                                          : dataset::Variant::kGpuMem;
    sources.push_back(dataset::instantiate_source(
        spec, variant, spec.default_sizes.front(), 64, 64));
  }
  return sources;
}

/// Applies one seeded mutation. Mutations are intentionally crude — the
/// point is hostile input, not plausible input.
inline std::string mutate(const std::string& source, Rng& rng) {
  std::string s = source;
  switch (rng.index(6)) {
    case 0: {  // truncation
      s.resize(rng.index(s.size() + 1));
      break;
    }
    case 1: {  // byte flip (any value, including NUL and >0x7f)
      if (s.empty()) break;
      s[rng.index(s.size())] =
          static_cast<char>(static_cast<unsigned char>(rng.index(256)));
      break;
    }
    case 2: {  // token splice: copy a random slice over a random position
      if (s.size() < 4) break;
      const std::size_t from = rng.index(s.size());
      const std::size_t len = 1 + rng.index(std::min<std::size_t>(
                                      32, s.size() - from));
      const std::size_t to = rng.index(s.size());
      s.insert(to, s.substr(from, len));
      break;
    }
    case 3: {  // random insertion of punctuation-heavy garbage
      static const char kGarbage[] = "(){}[]<>;:#\"'\\*/%&|^!~.,$`@0x";
      const std::size_t to = s.empty() ? 0 : rng.index(s.size());
      const std::size_t count = 1 + rng.index(8);
      std::string junk;
      for (std::size_t i = 0; i < count; ++i)
        junk += kGarbage[rng.index(sizeof kGarbage - 1)];
      s.insert(to, junk);
      break;
    }
    case 4: {  // range deletion
      if (s.size() < 2) break;
      const std::size_t from = rng.index(s.size());
      s.erase(from, 1 + rng.index(std::min<std::size_t>(64, s.size() - from)));
      break;
    }
    default: {  // digit bombing: stretch a number into a huge literal
      const std::size_t digit = s.find_first_of("0123456789");
      if (digit == std::string::npos) break;
      std::string digits;
      const std::size_t count = 1 + rng.index(30);
      for (std::size_t i = 0; i < count; ++i)
        digits += static_cast<char>('0' + rng.index(10));
      s.insert(digit, digits);
      break;
    }
  }
  return s;
}

/// The mutated inputs of the robustness suite, in its order: 1000 stacks of
/// 1-3 mutations (seed 0xfeedfacecafebeef), then 50 single mutations (seed
/// 2024).
inline std::vector<std::string> seeded_mutations(const std::vector<std::string>& sources) {
  std::vector<std::string> out;
  Rng rng(0xfeedfacecafebeefULL);
  for (int i = 0; i < 1000; ++i) {
    std::string mutated = sources[rng.index(sources.size())];
    const std::size_t rounds = 1 + rng.index(3);
    for (std::size_t r = 0; r < rounds; ++r) mutated = mutate(mutated, rng);
    out.push_back(std::move(mutated));
  }
  Rng second(2024);
  for (int i = 0; i < 50; ++i)
    out.push_back(mutate(sources[second.index(sources.size())], second));
  return out;
}

}  // namespace pg::test
