// Mutation fuzzing of the .pgds container through its one reader.
//
// A well-formed indexed corpus is mutated 1000 seeded ways — bit flips,
// truncations, splices, zeroed ranges, random u64 overwrites (which land on
// offsets, lengths, counts, and checksums) — and every mutant is pushed
// through DatasetView open + a decode of every record. The contract: a
// mutant either reads back or throws io::FormatError; nothing may crash,
// hang, over-read the buffer (ASan-visible via the heap-exact memory
// constructor), or raise any other exception type. Build with
// -DPARAGRAPH_SANITIZE=ON to run this under ASan+UBSan.
//
// The same mutations run over the index-stripped v1 form of that corpus
// (the offset scan's frame checks) and over the frozen dense-feature corpus
// (tests/golden_legacy/corpus_v2.pgds), whose records readers convert.
//
// Every single-bit flip at a stride over the record bodies of the golden
// corpus must fail to load: the record checksums leave no body bit that
// decodes into a different sample.
//
// Targeted cases then pin the index-specific failure modes: lying counts
// (rejected *before* allocation), out-of-bounds and overlapping index
// entries, flipped footers, and checksums that disagree with record bytes;
// and the record feature sections in both layouts: lying row counts, node
// kinds past the last one, truncated kind or literal arrays, and dense rows
// that are not one-hot. Those errors name the record, the section and the
// byte offset within the record frame.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "io/dataset_view.hpp"
#include "io/pgraph_io.hpp"
#include "model/encoding.hpp"
#include "pgds_v1.hpp"

#if !defined(PG_GOLDEN_DIR) || !defined(PG_GOLDEN_LEGACY_DIR)
#error "PG_GOLDEN_DIR / PG_GOLDEN_LEGACY_DIR must point at the golden corpora"
#endif

namespace pg::io {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(is)) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

std::string legacy_corpus() {
  return slurp(std::string(PG_GOLDEN_LEGACY_DIR) + "/corpus_v2.pgds");
}

std::string base_corpus(std::uint16_t version = 2) {
  auto r = frontend::parse_source(
      "void f(void) { for (int i = 0; i < 12; i++) { double x = 1.0; } }");
  EXPECT_TRUE(r.ok());
  graph::BuildOptions options;
  options.representation = graph::Representation::kParaGraph;
  const auto graph = graph::build_graph(r.root(), options);

  model::SampleSet set;
  set.target_scaler.fit_bounds(0.0, 1e6);
  set.teams_scaler.fit_bounds(1.0, 1024.0);
  set.threads_scaler.fit_bounds(1.0, 1024.0);
  for (int i = 0; i < 6; ++i) {
    model::TrainingSample s;
    s.graph = model::encode_graph(graph, 12.0);
    s.aux = {0.25f * static_cast<float>(i % 4), 0.5f};
    s.runtime_us = 100.0 * (i + 1);
    s.target_scaled = set.target_scaler.transform(s.runtime_us);
    s.app_id = i;
    s.app_name = "app" + std::to_string(i);
    s.variant = i % 2 ? "cpu" : "gpu";
    (i % 3 ? set.train : set.validation).push_back(s);
  }
  std::ostringstream os(std::ios::binary);
  write_sample_set(os, set, "fuzz", "ParaGraph", 7);
  return version == 1 ? test_io::strip_to_v1(os.str()) : os.str();
}

/// Opens `bytes` and decodes every record. FormatError is the only
/// acceptable failure; anything else fails the test. The bytes are staged
/// in a heap buffer sized exactly to the payload so any over-read past the
/// end trips AddressSanitizer instead of sliding by in string slack.
void expect_graceful(const std::string& bytes, std::uint64_t seed) {
  const auto heap = std::make_unique<unsigned char[]>(
      bytes.size() ? bytes.size() : 1);
  std::memcpy(heap.get(), bytes.data(), bytes.size());
  try {
    DatasetView view(heap.get(), bytes.size());
    model::TrainingSample sample;
    for (std::size_t i = 0; i < view.size(); ++i) {
      try {
        view.decode(i, sample);
      } catch (const FormatError&) {
        // per-record corruption — acceptable
      }
    }
  } catch (const FormatError&) {
    // rejected at open — acceptable
  } catch (const std::exception& e) {
    FAIL() << "seed " << seed << ": DatasetView raised non-FormatError: "
           << e.what();
  }
}

void thousand_mutations(const std::string& base) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    std::mt19937_64 rng(seed);
    std::string bytes = base;
    const std::size_t n = bytes.size();
    // 1-3 stacked mutations per seed.
    const int rounds = 1 + static_cast<int>(rng() % 3);
    for (int round = 0; round < rounds; ++round) {
      switch (rng() % 6) {
        case 0: {  // flip one bit
          const std::size_t at = rng() % bytes.size();
          bytes[at] = static_cast<char>(bytes[at] ^ (1u << (rng() % 8)));
          break;
        }
        case 1:  // truncate
          bytes.resize(rng() % (bytes.size() + 1));
          break;
        case 2: {  // splice a random chunk over another position
          if (bytes.size() < 2) break;
          const std::size_t len = 1 + rng() % 64;
          const std::size_t src = rng() % bytes.size();
          const std::size_t dst = rng() % bytes.size();
          for (std::size_t k = 0; k < len; ++k)
            bytes[(dst + k) % bytes.size()] = bytes[(src + k) % bytes.size()];
          break;
        }
        case 3: {  // zero a range
          const std::size_t at = rng() % bytes.size();
          const std::size_t len =
              std::min<std::size_t>(1 + rng() % 128, bytes.size() - at);
          std::memset(bytes.data() + at, 0, len);
          break;
        }
        case 4: {  // random u64 overwrite (hits offsets/lengths/counts)
          if (bytes.size() < 8) break;
          const std::size_t at = rng() % (bytes.size() - 7);
          const std::uint64_t v = rng();
          std::memcpy(bytes.data() + at, &v, 8);
          break;
        }
        default:  // append garbage
          for (std::size_t k = 0, len = 1 + rng() % 32; k < len; ++k)
            bytes.push_back(static_cast<char>(rng() & 0xFF));
      }
      if (bytes.empty()) break;
    }
    expect_graceful(bytes, seed);
    (void)n;
  }
}

TEST(CorpusFuzz, ThousandSeededMutationsNeverCrash) {
  thousand_mutations(base_corpus());
}

TEST(CorpusFuzz, ThousandSeededMutationsOfTheOffsetScanNeverCrash) {
  thousand_mutations(base_corpus(1));
}

TEST(CorpusFuzz, ThousandSeededMutationsOfTheDenseLayoutNeverCrash) {
  thousand_mutations(legacy_corpus());
}

TEST(CorpusFuzz, FlippedBodyBitsAreRejectedByEveryLoad) {
  // The low bit of every 7th record-body byte of the golden corpus, one
  // mutant each: the index stays intact, so open succeeds, and the record's
  // checksum must stop both the whole-corpus load and the one-record
  // decode the out-of-core trainer uses (its store serves train records
  // only, by their ordinal among them).
  const std::string golden = slurp(std::string(PG_GOLDEN_DIR) + "/corpus.pgds");
  const DatasetView clean(golden.data(), golden.size());
  ASSERT_TRUE(clean.has_checksums());
  std::size_t mutants = 0;
  std::size_t stride_at = 0;  // body bytes seen, across records
  std::size_t train_ordinal = 0;  // train records before record r
  for (std::size_t r = 0; r < clean.size(); ++r) {
    const auto first = static_cast<std::size_t>(clean.record_offset(r)) + 12;
    const auto end = static_cast<std::size_t>(clean.record_offset(r) +
                                              clean.record_length(r));
    for (std::size_t at = first; at < end; ++at, ++stride_at) {
      if (stride_at % 7 != 0) continue;
      std::string mutant = golden;
      mutant[at] = static_cast<char>(mutant[at] ^ 0x01);
      const auto heap = std::make_unique<unsigned char[]>(mutant.size());
      std::memcpy(heap.get(), mutant.data(), mutant.size());
      const DatasetView view(heap.get(), mutant.size());
      EXPECT_THROW((void)load_sample_set(view, 1), FormatError)
          << "record " << r << " byte " << at;
      if (clean.split(r) == Split::kTrain) {
        const DatasetSampleStore store(view);
        model::TrainingSample scratch;
        EXPECT_THROW((void)store.get(train_ordinal, scratch), FormatError)
            << "record " << r << " byte " << at;
      }
      ++mutants;
    }
    if (clean.split(r) == Split::kTrain) ++train_ordinal;
  }
  // Four records of 7-8 kB of bodies each: thousands of mutants.
  EXPECT_GT(mutants, 4000u);
}

// --- targeted index attacks -----------------------------------------------

struct Layout {
  std::string bytes;
  std::size_t footer;        // 20-byte footer start
  std::size_t index_offset;  // "PGIX" marker
  std::size_t index_size;
  std::size_t count_field;   // u64 record count inside the index
};

Layout layout() {
  Layout l;
  l.bytes = base_corpus();
  l.footer = l.bytes.size() - 20;
  std::uint64_t off = 0;
  std::uint64_t size = 0;
  std::memcpy(&off, l.bytes.data() + l.footer, 8);
  std::memcpy(&size, l.bytes.data() + l.footer + 8, 8);
  l.index_offset = static_cast<std::size_t>(off);
  l.index_size = static_cast<std::size_t>(size);
  l.count_field = l.index_offset + 4;
  return l;
}

void expect_open_rejected(const std::string& bytes, const char* what) {
  const auto heap = std::make_unique<unsigned char[]>(bytes.size());
  std::memcpy(heap.get(), bytes.data(), bytes.size());
  EXPECT_THROW(DatasetView(heap.get(), bytes.size()), FormatError) << what;
}

TEST(CorpusFuzz, LyingIndexCountIsRejectedBeforeAllocation) {
  // A count claiming 2^28 records against a 170-byte index must be rejected
  // by arithmetic, not by attempting a 2^28-entry allocation (under ASan an
  // eager allocation of that size aborts the run).
  Layout l = layout();
  const std::uint64_t lie = std::uint64_t{1} << 28;
  std::memcpy(l.bytes.data() + l.count_field, &lie, 8);
  expect_open_rejected(l.bytes, "huge count");

  const std::uint64_t off_by_one = 7;  // real count is 6
  std::memcpy(l.bytes.data() + l.count_field, &off_by_one, 8);
  expect_open_rejected(l.bytes, "off-by-one count");
}

TEST(CorpusFuzz, OutOfBoundsIndexOffsetIsRejected) {
  Layout l = layout();
  // First entry's record offset, pushed past EOF. The index self-checksum
  // would catch this too, so recompute it -- the offset bound check itself
  // must fire.
  const std::size_t entry0 = l.index_offset + 12;
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(l.bytes.data() + entry0, &huge, 8);
  const std::size_t entries = l.index_size - 20;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < entries; ++i) {
    h ^= static_cast<unsigned char>(l.bytes[entry0 + i]);
    h *= 0x100000001b3ull;
  }
  std::memcpy(l.bytes.data() + l.index_offset + 12 + entries, &h, 8);
  expect_open_rejected(l.bytes, "OOB offset");
}

TEST(CorpusFuzz, OverlappingIndexEntriesAreRejected) {
  Layout l = layout();
  // Shrink entry 0's length so entry 1 would overlap it (offsets must be
  // contiguous); fix the self-checksum so only the overlap check can fire.
  const std::size_t entry0 = l.index_offset + 12;
  std::uint64_t len = 0;
  std::memcpy(&len, l.bytes.data() + entry0 + 8, 8);
  len -= 4;
  std::memcpy(l.bytes.data() + entry0 + 8, &len, 8);
  const std::size_t entries = l.index_size - 20;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < entries; ++i) {
    h ^= static_cast<unsigned char>(l.bytes[entry0 + i]);
    h *= 0x100000001b3ull;
  }
  std::memcpy(l.bytes.data() + l.index_offset + 12 + entries, &h, 8);
  expect_open_rejected(l.bytes, "overlapping entries");
}

TEST(CorpusFuzz, FlippedFooterBytesAreRejected) {
  const Layout l = layout();
  for (std::size_t at = l.footer; at < l.bytes.size(); ++at) {
    std::string mutant = l.bytes;
    mutant[at] = static_cast<char>(mutant[at] ^ 0xFF);
    const auto heap = std::make_unique<unsigned char[]>(mutant.size());
    std::memcpy(heap.get(), mutant.data(), mutant.size());
    EXPECT_THROW(DatasetView(heap.get(), mutant.size()), FormatError)
        << "footer byte " << (at - l.footer);
  }
}

TEST(CorpusFuzz, FlippedIndexBytesAreRejectedAtOpen) {
  // Any single-bit damage to the index section (marker, count, entries,
  // self-checksum) must be caught at open time.
  const Layout l = layout();
  for (std::size_t at = l.index_offset; at < l.footer; at += 7) {
    std::string mutant = l.bytes;
    mutant[at] = static_cast<char>(mutant[at] ^ 0x10);
    const auto heap = std::make_unique<unsigned char[]>(mutant.size());
    std::memcpy(heap.get(), mutant.data(), mutant.size());
    EXPECT_THROW(DatasetView(heap.get(), mutant.size()), FormatError)
        << "index byte " << (at - l.index_offset);
  }
}

TEST(CorpusFuzz, TruncationAtEveryTailBoundaryIsRejected) {
  const Layout l = layout();
  // Chop anywhere inside the index/footer region: the footer either
  // disappears or points outside the file.
  for (std::size_t keep = l.index_offset - 12; keep < l.bytes.size();
       keep += 3) {
    const std::string mutant = l.bytes.substr(0, keep);
    const auto heap = std::make_unique<unsigned char[]>(
        mutant.size() ? mutant.size() : 1);
    std::memcpy(heap.get(), mutant.data(), mutant.size());
    EXPECT_THROW(DatasetView(heap.get(), mutant.size()), FormatError)
        << "kept " << keep << " of " << l.bytes.size();
  }
}

TEST(CorpusFuzz, LyingChecksumFailsOnlyTheLiedAboutRecord) {
  // Flip a body byte of record 3 (leaving the index intact): open succeeds,
  // records 0-2 and 4-5 decode, record 3 reports a checksum mismatch.
  Layout l = layout();
  {
    const unsigned char* base =
        reinterpret_cast<const unsigned char*>(l.bytes.data());
    DatasetView clean(base, l.bytes.size());
    ASSERT_EQ(clean.size(), 6u);
    const std::size_t victim =
        static_cast<std::size_t>(clean.record_offset(3)) + 16;
    l.bytes[victim] = static_cast<char>(l.bytes[victim] ^ 0x01);
  }
  const auto heap = std::make_unique<unsigned char[]>(l.bytes.size());
  std::memcpy(heap.get(), l.bytes.data(), l.bytes.size());
  DatasetView view(heap.get(), l.bytes.size());
  model::TrainingSample sample;
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (i == 3) {
      EXPECT_THROW(view.decode(i, sample), FormatError);
    } else {
      EXPECT_NO_THROW(view.decode(i, sample)) << "record " << i;
    }
  }
}

// --- record feature sections ----------------------------------------------

/// Record 0 of a v1 corpus (no record checksums, so a mutated body reaches
/// the feature decode): where its frame starts and where its features section
/// starts, found by its (u64 rows, u64 layout word) prefix.
struct RecordLayout {
  std::string bytes;
  std::size_t frame = 0;     // the "RECD" marker
  std::size_t features = 0;  // u64 rows, u64 layout word
  std::uint64_t rows = 0;
};

RecordLayout record_layout(std::string bytes, std::uint64_t layout_word) {
  RecordLayout l;
  l.bytes = std::move(bytes);
  const DatasetView view(l.bytes.data(), l.bytes.size());
  l.frame = static_cast<std::size_t>(view.record_offset(0));
  for (std::size_t at = l.frame + 13; at + 16 <= l.bytes.size(); ++at) {
    std::uint64_t rows = 0;
    std::uint64_t word = 0;
    std::memcpy(&rows, l.bytes.data() + at, 8);
    std::memcpy(&word, l.bytes.data() + at + 8, 8);
    if (word == layout_word && rows > 0 && rows < 1024) {
      l.features = at;
      l.rows = rows;
      return l;
    }
  }
  ADD_FAILURE() << "no features section found in record 0";
  return l;
}

/// The frozen dense-layout corpus at format v1 (no record checksums).
std::string legacy_v1_corpus() {
  return slurp(std::string(PG_GOLDEN_LEGACY_DIR) + "/corpus.pgds");
}

/// A corpus whose record 0 is corrupt: opening it (the v1 offset scan
/// checks frame headers and split tags) or decoding record 0 must throw a
/// FormatError naming record 0 and ending in `what` (containing it, when
/// `exact_end` is false).
void expect_record0_rejected(const std::string& bytes, const std::string& what,
                             const char* label, bool exact_end = true) {
  const auto heap = std::make_unique<unsigned char[]>(bytes.size());
  std::memcpy(heap.get(), bytes.data(), bytes.size());
  std::string view_text;
  try {
    const DatasetView view(heap.get(), bytes.size());
    model::TrainingSample sample;
    view.decode(0, sample);
    ADD_FAILURE() << label << ": DatasetView decoded record 0";
  } catch (const FormatError& e) {
    view_text = e.what();
  }
  EXPECT_EQ(view_text.rfind("corrupt dataset record 0 ", 0), 0u)
      << label << ": " << view_text;
  const std::size_t at = view_text.rfind(what);
  EXPECT_TRUE(at != std::string::npos &&
              (!exact_end || at + what.size() == view_text.size()))
      << label << ": " << view_text << "\nwanted: " << what;
}

std::string at_offset(std::size_t offset) {
  return " (features section, byte offset " + std::to_string(offset) + ")";
}

TEST(CorpusFuzz, RecordFrameHeaderErrorsNameTheFrameOffset) {
  for (const std::uint16_t version : {std::uint16_t{1}, std::uint16_t{2}}) {
    const RecordLayout l = record_layout(base_corpus(version), 2);
    const std::string at = " at byte offset " + std::to_string(l.frame);
    std::string bytes = l.bytes;
    bytes[l.frame] = 'X';  // "RECD" -> "XECD"
    expect_record0_rejected(bytes,
                            "corrupt dataset record 0 (frame header" + at +
                                "): bad record marker",
                            "bad marker");
  }
  // A v1 corpus has no index to cross-check the frame against, so the
  // offset scan judges the frame header and the split tag by themselves.
  const RecordLayout l = record_layout(base_corpus(1), 2);
  const std::string at = " at byte offset " + std::to_string(l.frame);
  std::uint64_t body = 0;
  std::memcpy(&body, l.bytes.data() + l.frame + 4, 8);
  {
    std::string bytes = l.bytes;
    const std::uint64_t zero = 0;
    std::memcpy(bytes.data() + l.frame + 4, &zero, 8);
    expect_record0_rejected(bytes,
                            "corrupt dataset record 0 (frame header" + at +
                                "): implausible record size",
                            "empty frame");
  }
  {
    std::string bytes = l.bytes;
    bytes[l.frame + 12] = 7;  // the split tag, first byte of the body
    expect_record0_rejected(bytes,
                            "corrupt dataset record 0 (" +
                                std::to_string(body) + "-byte frame" + at +
                                "): bad split tag",
                            "split tag");
  }
}

TEST(CorpusFuzz, RecordNodeKindPastTheLastKindIsRejected) {
  const RecordLayout l =
      record_layout(base_corpus(1), /*kind/literal layout=*/2);
  for (const int kind : {44, 200}) {
    std::string bytes = l.bytes;
    const std::size_t at = l.features + 16 + 3;
    bytes[at] = static_cast<char>(kind);
    expect_record0_rejected(bytes,
                            "corrupt sample: node kind " +
                                std::to_string(kind) + " out of range" +
                                at_offset(at - l.frame),
                            "kind");
  }
}

TEST(CorpusFuzz, RecordLyingRowCountIsRejected) {
  // Records have no per-section budget: a row count the record cannot hold
  // fails the size check; a plausible lie shifts the arrays and fails in
  // the features or a later section — always naming one.
  for (const std::uint64_t layout_word : {std::uint64_t{2}, std::uint64_t{45}}) {
    const RecordLayout l = record_layout(
        layout_word == 2 ? base_corpus(1) : legacy_v1_corpus(), layout_word);
    std::string bytes = l.bytes;
    const std::uint64_t lie = std::uint64_t{1} << 20;
    std::memcpy(bytes.data() + l.features, &lie, 8);
    expect_record0_rejected(
        bytes,
        std::string("corrupt sample: ") +
            (layout_word == 2 ? "kind and literal arrays"
                              : "dense feature matrix") +
            " larger than the section" + at_offset(l.features + 16 - l.frame),
        "huge rows");
    for (const std::uint64_t rows : {l.rows + 1, l.rows - 1}) {
      std::string shifted = l.bytes;
      std::memcpy(shifted.data() + l.features, &rows, 8);
      expect_record0_rejected(shifted, " section, byte offset ", "shifted rows",
                              /*exact_end=*/false);
    }
  }
}

TEST(CorpusFuzz, RecordFrameEndingInsideTheArraysIsRejected) {
  // Record 0 cut short inside its kind or literal array, its frame size
  // shrunk to match and the end marker moved up behind it: the frame is
  // whole, so only the features decoder can see the arrays do not fit.
  const RecordLayout l = record_layout(base_corpus(1), 2);
  for (const std::size_t cut :
       {l.features + 16 + 2, l.features + 16 + l.rows + 5}) {
    std::string bytes = l.bytes.substr(0, cut);
    const std::uint64_t body = cut - l.frame - 12;
    std::memcpy(bytes.data() + l.frame + 4, &body, 8);
    const std::uint64_t records = 1;
    bytes += "DEND";
    bytes.append(reinterpret_cast<const char*>(&records), 8);
    expect_record0_rejected(bytes,
                            "corrupt sample: kind and literal arrays larger "
                            "than the section" +
                                at_offset(l.features + 16 - l.frame),
                            "short frame");
  }
}

TEST(CorpusFuzz, RecordDenseRowsThatAreNotOneHotAreRejected) {
  const RecordLayout l = record_layout(legacy_v1_corpus(), 45);
  const auto cell = [&](std::size_t col) {
    return l.features + 16 + col * 4;  // row 0
  };
  std::size_t kind = 0;
  for (std::size_t c = 0; c < 44; ++c) {
    std::uint32_t word = 0;
    std::memcpy(&word, l.bytes.data() + cell(c), 4);
    if (word == 0x3f800000u) kind = c;
  }
  const auto put = [](std::string& s, std::size_t at, float v) {
    const auto word = std::bit_cast<std::uint32_t>(v);
    std::memcpy(s.data() + at, &word, 4);
  };
  const std::size_t other = kind == 43 ? 0 : 43;
  {
    std::string bytes = l.bytes;
    put(bytes, cell(other), 1.0f);
    expect_record0_rejected(
        bytes,
        "corrupt sample: dense feature row 0 holds two node kinds" +
            at_offset(cell(std::max(kind, other)) - l.frame),
        "two kinds");
  }
  {
    std::string bytes = l.bytes;
    put(bytes, cell(kind), 0.5f);
    expect_record0_rejected(bytes,
                            "corrupt sample: dense feature row 0 holds a kind "
                            "entry other than 0 or 1" +
                                at_offset(cell(kind) - l.frame),
                            "half kind");
  }
  {
    std::string bytes = l.bytes;
    put(bytes, cell(kind), 0.0f);
    expect_record0_rejected(
        bytes,
        "corrupt sample: dense feature row 0 holds no node kind" +
            at_offset(cell(0) - l.frame),
        "no kind");
  }
}

}  // namespace
}  // namespace pg::io
