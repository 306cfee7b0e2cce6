// Mutation fuzzing of in-process sample decode: the span entry point
// io::read_sample(data, size), which paragraph-serve runs on every predict
// payload, checked against the istream entry point.
//
// Each golden .psample — the kind/literal layout of tests/golden and the
// frozen dense layout of tests/golden_legacy — is mutated 1000 seeded ways
// (truncations, byte flips, splices, and lying section sizes, feature-row
// counts and relation counts), and both entry points decode every mutant.
// The contract: only io::FormatError may escape, and the two paths agree
// exactly — either both decode and the samples re-encode to identical
// bytes, or both throw with the same what(). The span is staged in a heap
// buffer sized exactly to the mutant, so an over-read trips
// AddressSanitizer (the ASan+UBSan CI job runs every unit suite).
//
// Targeted cases then pin the feature section's failure texts in both
// layouts, each naming the section and the byte offset: a section one byte
// short or one byte long, row counts the section cannot hold, truncated
// arrays, node kinds past the last one, and dense rows that are not one-hot
// (two 1.0f, a 0.5f kind entry, no 1.0f).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "io/binary.hpp"
#include "io/pgraph_io.hpp"
#include "model/encoding.hpp"
#include "support/rng.hpp"

#if !defined(PG_GOLDEN_DIR) || !defined(PG_GOLDEN_LEGACY_DIR)
#error "PG_GOLDEN_DIR / PG_GOLDEN_LEGACY_DIR must point at the golden corpora"
#endif

namespace pg::io {
namespace {

constexpr const char* kGoldenSamples[] = {
    "matvec_cpu.psample", "corr_gpu_mem.psample",
    "gauss_seidel_cpu_collapse.psample", "matmul_gpu_collapse_mem.psample"};

// Container layout (docs/FORMAT.md): 24-byte header, then one 12-byte
// table entry per section (u32 id, u64 size), then the payloads.
constexpr std::size_t kHeaderBytes = 24;
constexpr std::size_t kEntryBytes = 12;

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(is)) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

std::uint64_t read_u64_at(const std::string& s, std::size_t at) {
  return load_le64(reinterpret_cast<const unsigned char*>(s.data() + at));
}

void write_u64_at(std::string& s, std::size_t at, std::uint64_t v) {
  store_le64(reinterpret_cast<unsigned char*>(s.data() + at), v);
}

/// Where the count fields of a well-formed sample live, found by walking
/// the layout the encoder writes.
struct Layout {
  std::size_t feature_size_field = 0;  // table entry size of the features
  std::size_t features = 0;            // section start: u64 rows, u64 layout
  std::size_t feature_bytes = 0;       // declared features section size
  std::uint64_t rows = 0;
  bool dense = false;                  // the legacy [rows x 45] f32 layout
  std::vector<std::size_t> counts;  // every u64 count in the relations
};

Layout layout_of(const std::string& s) {
  Layout out;
  const std::size_t sections = 3;  // meta, features, relations
  std::size_t at = kHeaderBytes + sections * kEntryBytes;
  const std::uint64_t meta_bytes = read_u64_at(s, kHeaderBytes + 4);
  out.feature_size_field = kHeaderBytes + kEntryBytes + 4;
  out.feature_bytes = read_u64_at(s, out.feature_size_field);
  out.features = at + meta_bytes;
  out.rows = read_u64_at(s, out.features);
  out.dense = read_u64_at(s, out.features + 8) == model::kNodeFeatureDim;
  at = out.features + out.feature_bytes;
  out.counts.push_back(at);  // relation graph node count
  const std::uint64_t relations = read_u64_at(s, at + 8) & 0xffffffffu;
  at += 12;  // u64 node count + u32 relation count
  for (std::uint64_t r = 0; r < relations; ++r) {
    out.counts.push_back(at);
    at += 8 + 20 * read_u64_at(s, at);  // edges
    for (int array = 0; array < 3; ++array) {  // nodes, offsets, groups
      out.counts.push_back(at);
      at += 8 + 4 * read_u64_at(s, at);
    }
  }
  EXPECT_EQ(at, s.size()) << "layout walk did not end at the file end";
  return out;
}

/// A count that lies: off by one either way, zero, the largest value the
/// reader's sanity cap allows, just past it, or anything at all.
std::uint64_t lying_count(std::uint64_t truth, Rng& rng) {
  switch (rng.index(6)) {
    case 0: return truth + 1;
    case 1: return truth == 0 ? 1 : truth - 1;
    case 2: return 0;
    case 3: return kMaxReasonableCount;
    case 4: return kMaxReasonableCount + 1;
    default: return rng.next();
  }
}

std::string mutate(const std::string& base, const Layout& layout, Rng& rng) {
  std::string s = base;
  const int rounds = 1 + static_cast<int>(rng.index(3));
  for (int round = 0; round < rounds; ++round) {
    switch (rng.index(6)) {
      case 0:  // truncation
        s.resize(rng.index(s.size() + 1));
        break;
      case 1:  // byte flip
        if (!s.empty())
          s[rng.index(s.size())] = static_cast<char>(rng.index(256));
        break;
      case 2: {  // splice: copy a random slice over a random position
        if (s.size() < 4) break;
        const std::size_t from = rng.index(s.size());
        const std::size_t len =
            1 + rng.index(std::min<std::size_t>(64, s.size() - from));
        const std::string slice = s.substr(from, len);
        const std::size_t to = rng.index(s.size() - len + 1);
        s.replace(to, len, slice);
        break;
      }
      case 3:  // lying feature row count
        if (layout.features + 8 <= s.size())
          write_u64_at(s, layout.features, lying_count(layout.rows, rng));
        break;
      case 4: {  // lying relation count (node, edge or array count)
        const std::size_t at = layout.counts[rng.index(layout.counts.size())];
        if (at + 8 <= s.size())
          write_u64_at(s, at, lying_count(read_u64_at(s, at), rng));
        break;
      }
      default:  // lying features section size in the table
        if (layout.feature_size_field + 8 <= s.size())
          write_u64_at(s, layout.feature_size_field,
                       lying_count(layout.feature_bytes, rng));
    }
  }
  return s;
}

/// One entry point's result: the re-encoded sample, or the error text.
struct Outcome {
  bool decoded = false;
  std::string text;
};

Outcome decode_span(const std::string& bytes) {
  // Heap-exact staging: reading one byte past the end is an ASan error,
  // not a silent read of string slack.
  const auto heap =
      std::make_unique<unsigned char[]>(bytes.empty() ? 1 : bytes.size());
  std::memcpy(heap.get(), bytes.data(), bytes.size());
  try {
    return {true, encode_sample(read_sample(heap.get(), bytes.size()))};
  } catch (const FormatError& e) {
    return {false, e.what()};
  }
}

Outcome decode_stream(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  try {
    return {true, encode_sample(read_sample(is))};
  } catch (const FormatError& e) {
    return {false, e.what()};
  }
}

/// Both entry points over `bytes`; they must agree exactly. Returns the
/// span outcome.
Outcome expect_agree(const std::string& bytes, const std::string& label) {
  Outcome span, stream;
  try {
    span = decode_span(bytes);
    stream = decode_stream(bytes);
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": non-FormatError escaped: " << e.what();
    return {};
  }
  EXPECT_EQ(span.decoded, stream.decoded) << label;
  if (span.decoded && stream.decoded)
    EXPECT_TRUE(span.text == stream.text)
        << label << ": the entry points decoded different samples";
  else
    EXPECT_EQ(span.text, stream.text) << label;
  return span;
}

std::string golden(const char* name) {
  return slurp(std::string(PG_GOLDEN_DIR) + "/" + name);
}

std::string legacy(const char* name) {
  return slurp(std::string(PG_GOLDEN_LEGACY_DIR) + "/" + name);
}

/// Every golden sample in both layouts, labelled.
std::vector<std::pair<std::string, std::string>> all_samples() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const char* name : kGoldenSamples) {
    out.emplace_back(name, golden(name));
    out.emplace_back(std::string("legacy ") + name, legacy(name));
  }
  return out;
}

TEST(SampleFuzz, GoldenSamplesDecodeAndReEncodeExactly) {
  for (const char* name : kGoldenSamples) {
    const std::string bytes = golden(name);
    const Outcome out = expect_agree(bytes, name);
    ASSERT_TRUE(out.decoded) << name << ": " << out.text;
    EXPECT_TRUE(out.text == bytes) << name << ": re-encode differs";
    // The dense layout decodes to the same sample, written in the new one.
    const Outcome converted = expect_agree(legacy(name), name);
    ASSERT_TRUE(converted.decoded) << name << ": " << converted.text;
    EXPECT_TRUE(converted.text == bytes) << name << ": conversion differs";
  }
}

TEST(SampleFuzz, ThousandMutationsPerGoldenSampleAgreeAcrossEntryPoints) {
  for (const auto& [name, base] : all_samples()) {
    const Layout layout = layout_of(base);
    std::size_t rejected = 0;
    for (std::uint64_t seed = 0; seed < 1000; ++seed) {
      Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
      const std::string bytes = mutate(base, layout, rng);
      const Outcome out =
          expect_agree(bytes, name + " seed " + std::to_string(seed));
      if (!out.decoded) ++rejected;
      if (::testing::Test::HasFailure()) return;  // first failure is enough
    }
    // The mutations are hostile: nearly all must be caught.
    EXPECT_GT(rejected, 900u) << name;
  }
}

TEST(SampleFuzz, IstreamEntryPointStopsAtTheContainerEnd) {
  const std::string a = golden("matvec_cpu.psample");
  const std::string b = golden("corr_gpu_mem.psample");
  std::istringstream is(a + b, std::ios::binary);
  EXPECT_EQ(encode_sample(read_sample(is)), a);
  EXPECT_EQ(encode_sample(read_sample(is)), b);
  EXPECT_EQ(is.peek(), std::char_traits<char>::eof());
}

// --- the feature section's failure texts ----------------------------------

std::string expect_rejected(const std::string& bytes,
                            const std::string& label) {
  const Outcome out = expect_agree(bytes, label);
  EXPECT_FALSE(out.decoded) << label;
  return out.text;
}

/// The text a features-section failure carries: what, the section and the
/// byte offset the decoder had reached.
std::string feature_error(const std::string& what, std::size_t offset) {
  return what + " (features section, byte offset " + std::to_string(offset) +
         ")";
}

/// The size check's text for `layout`'s arrays.
std::string too_large(const Layout& layout) {
  return layout.dense
             ? "corrupt sample: dense feature matrix larger than the section"
             : "corrupt sample: kind and literal arrays larger than the "
               "section";
}

TEST(SampleFuzz, FeatureSectionOneByteShortIsRejected) {
  for (const auto& [name, base] : all_samples()) {
    std::string s = base;
    const Layout layout = layout_of(s);
    // Drop the arrays' last byte and declare the section one byte smaller:
    // the rest of the container stays consistent.
    s.erase(layout.features + layout.feature_bytes - 1, 1);
    write_u64_at(s, layout.feature_size_field, layout.feature_bytes - 1);
    EXPECT_EQ(expect_rejected(s, name),
              feature_error(too_large(layout), layout.features + 16));
  }
}

TEST(SampleFuzz, FeatureSectionOneByteLongIsRejected) {
  for (const auto& [name, base] : all_samples()) {
    std::string s = base;
    const Layout layout = layout_of(s);
    s.insert(layout.features + layout.feature_bytes, 1, '\0');
    write_u64_at(s, layout.feature_size_field, layout.feature_bytes + 1);
    EXPECT_EQ(expect_rejected(s, name),
              feature_error("section underrun: payload smaller than its "
                            "declared size",
                            layout.features + layout.feature_bytes));
  }
}

TEST(SampleFuzz, RowCountBeyondTheSectionBudgetIsRejectedBeforeAllocation) {
  for (const auto& [name, base] : all_samples()) {
    const Layout layout = layout_of(base);
    for (const std::uint64_t rows :
         {layout.rows + 1, std::uint64_t{1} << 20, kMaxReasonableCount}) {
      std::string s = base;
      write_u64_at(s, layout.features, rows);
      EXPECT_EQ(expect_rejected(s, name),
                feature_error(too_large(layout), layout.features + 16))
          << "rows " << rows;
    }
    std::string s = base;
    write_u64_at(s, layout.features, kMaxReasonableCount + 1);
    EXPECT_EQ(expect_rejected(s, name),
              feature_error("corrupt count field: feature rows",
                            layout.features + 8));
  }
}

TEST(SampleFuzz, RowCountBelowTheTruthIsRejected) {
  // One row fewer: the arrays fit, and the section ends early (new layout:
  // kinds and literals shift, so a literal byte is read as a kind or the
  // section underruns; dense: the section underruns).
  for (const auto& [name, base] : all_samples()) {
    const Layout layout = layout_of(base);
    std::string s = base;
    write_u64_at(s, layout.features, layout.rows - 1);
    const std::string text = expect_rejected(s, name);
    EXPECT_NE(text.find(" (features section, byte offset "), std::string::npos)
        << name << ": " << text;
  }
}

TEST(SampleFuzz, FileEndingInsideTheArraysIsTruncation) {
  for (const auto& [name, base] : all_samples()) {
    const Layout layout = layout_of(base);
    // 5 array bytes; for the new layout also mid-literals (all kinds there).
    std::vector<std::size_t> cuts = {layout.features + 16 + 5};
    if (!layout.dense) cuts.push_back(layout.features + 16 + layout.rows + 3);
    for (const std::size_t cut : cuts) {
      std::string s = base;
      s.resize(cut);
      EXPECT_EQ(expect_rejected(s, name),
                feature_error("truncated file: unexpected end of data",
                              layout.features + 16))
          << "cut at " << cut;
    }
  }
}

TEST(SampleFuzz, UnknownFeatureLayoutIsRejected) {
  for (const auto& [name, base] : all_samples()) {
    const Layout layout = layout_of(base);
    for (const std::uint64_t word : {0ull, 1ull, 3ull, 44ull, 46ull}) {
      std::string s = base;
      write_u64_at(s, layout.features + 8, word);
      EXPECT_EQ(expect_rejected(s, name),
                feature_error("corrupt sample: unknown feature layout " +
                                  std::to_string(word),
                              layout.features + 8))
          << "layout word " << word;
    }
  }
}

TEST(SampleFuzz, NodeKindPastTheLastKindIsRejected) {
  for (const char* name : kGoldenSamples) {
    const std::string base = golden(name);
    const Layout layout = layout_of(base);
    ASSERT_FALSE(layout.dense) << name;
    for (const std::size_t row : {std::size_t{0}, layout.rows - 1}) {
      for (const int kind : {44, 45, 255}) {
        std::string s = base;
        const std::size_t at = layout.features + 16 + row;
        s[at] = static_cast<char>(kind);
        EXPECT_EQ(expect_rejected(s, name),
                  feature_error("corrupt sample: node kind " +
                                    std::to_string(kind) + " out of range",
                                at))
            << "row " << row;
      }
    }
  }
}

/// Legacy dense rows: the f32 at (row, col) of the feature matrix.
std::size_t dense_at(const Layout& layout, std::size_t row, std::size_t col) {
  return layout.features + 16 + (row * model::kNodeFeatureDim + col) * 4;
}

void write_f32_at(std::string& s, std::size_t at, float v) {
  store_le32(reinterpret_cast<unsigned char*>(s.data() + at),
             std::bit_cast<std::uint32_t>(v));
}

/// The kind column of a legacy dense row (its one 1.0f).
std::size_t dense_kind(const std::string& s, const Layout& layout,
                       std::size_t row) {
  for (std::size_t c = 0; c + 1 < model::kNodeFeatureDim; ++c)
    if (load_le32(reinterpret_cast<const unsigned char*>(
            s.data() + dense_at(layout, row, c))) == 0x3f800000u)
      return c;
  ADD_FAILURE() << "row " << row << " holds no 1.0f";
  return 0;
}

TEST(SampleFuzz, DenseRowsThatAreNotOneHotAreRejected) {
  for (const char* name : kGoldenSamples) {
    const std::string base = legacy(name);
    const Layout layout = layout_of(base);
    ASSERT_TRUE(layout.dense) << name;
    for (const std::size_t row : {std::size_t{0}, layout.rows - 1}) {
      const std::size_t kind = dense_kind(base, layout, row);
      const std::string r = "dense feature row " + std::to_string(row);
      // A second 1.0f, before and after the real one: the error names the
      // later of the two.
      for (const std::size_t col : {std::size_t{0}, std::size_t{43}}) {
        if (col == kind) continue;
        std::string s = base;
        write_f32_at(s, dense_at(layout, row, col), 1.0f);
        EXPECT_EQ(expect_rejected(s, name),
                  feature_error("corrupt sample: " + r +
                                    " holds two node kinds",
                                dense_at(layout, row, std::max(col, kind))));
      }
      // A 0.5f kind entry, in place of the 1.0f and beside it; a -0.0f.
      for (const auto& [col, v] :
           {std::pair{kind, 0.5f}, std::pair{(kind + 1) % 44, 0.5f},
            std::pair{(kind + 2) % 44, -0.0f}}) {
        std::string s = base;
        write_f32_at(s, dense_at(layout, row, col), v);
        EXPECT_EQ(expect_rejected(s, name),
                  feature_error("corrupt sample: " + r +
                                    " holds a kind entry other than 0 or 1",
                                dense_at(layout, row, col)));
      }
      // No 1.0f at all.
      std::string s = base;
      write_f32_at(s, dense_at(layout, row, kind), 0.0f);
      EXPECT_EQ(expect_rejected(s, name),
                feature_error("corrupt sample: " + r + " holds no node kind",
                              dense_at(layout, row, 0)));
    }
    // The literal column may hold anything, as it always could.
    std::string s = base;
    write_f32_at(s, dense_at(layout, 0, 44), -1.5f);
    const Outcome out = expect_agree(s, name);
    EXPECT_TRUE(out.decoded) << name << ": " << out.text;
  }
}

}  // namespace
}  // namespace pg::io
