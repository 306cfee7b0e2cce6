// Corpus I/O suite: format-v2 indexed datasets, the mmap-backed DatasetView
// (random access + v1 fallback scan), parallel shard loading, reindexing,
// and the out-of-core streaming trainer's bitwise-reproducibility contract.
// The v1 inputs are index-stripped v2 bytes (pgds_v1.hpp).
//
// The bitwise yardstick throughout is serialization: two TrainingSamples
// (or two trained models) are "equal" iff their serialized bytes are equal,
// which is exactly the property the paper's corpus pipeline depends on.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "io/dataset_view.hpp"
#include "io/pgraph_io.hpp"
#include "model/checkpoint.hpp"
#include "model/encoding.hpp"
#include "model/trainer.hpp"
#include "pgds_v1.hpp"

namespace pg::io {
namespace {

std::string legacy_path(const std::string& name) {
  return std::string(PG_GOLDEN_LEGACY_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(is)) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

// --- corpus synthesis -----------------------------------------------------

graph::ProgramGraph parse_small(int bound) {
  std::ostringstream src;
  src << "void f(void) { for (int i = 0; i < " << bound
      << "; i++) { double x = 1.0; } }";
  auto r = frontend::parse_source(src.str());
  EXPECT_TRUE(r.ok());
  graph::BuildOptions options;
  options.representation = graph::Representation::kParaGraph;
  return graph::build_graph(r.root(), options);
}

/// Randomized but seed-deterministic sample set. Graph structure varies
/// (loop bound), as do aux features, runtimes, and string fields (including
/// empty strings — a degenerate the string codec must round-trip).
model::SampleSet make_set(std::size_t train_n, std::size_t val_n,
                          std::uint64_t seed) {
  model::SampleSet set;
  set.target_scaler.fit_bounds(0.0, 1e6);
  set.teams_scaler.fit_bounds(1.0, 1024.0);
  set.threads_scaler.fit_bounds(1.0, 1024.0);
  set.child_weight_scale = 64.0;

  std::vector<model::EncodedGraph> pool;
  for (int bound : {4, 17, 40, 129})
    pool.push_back(model::encode_graph(parse_small(bound), 64.0));

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> runtime(1.0, 9e5);
  std::uniform_real_distribution<float> unit(0.0f, 1.0f);
  auto make = [&](std::size_t i) {
    model::TrainingSample s;
    s.graph = pool[rng() % pool.size()];
    s.aux = {unit(rng), unit(rng)};
    s.runtime_us = runtime(rng);
    s.target_scaled = set.target_scaler.transform(s.runtime_us);
    s.app_id = static_cast<std::int32_t>(rng() % 7);
    s.app_name = (i % 5 == 0) ? "" : "app" + std::to_string(s.app_id);
    s.variant = (i % 3 == 0) ? "gpu_collapse_mem" : "cpu";
    return s;
  };
  for (std::size_t i = 0; i < train_n; ++i) set.train.push_back(make(i));
  for (std::size_t i = 0; i < val_n; ++i)
    set.validation.push_back(make(train_n + i));
  return set;
}

/// The set as DatasetWriter writes it (v2), or index-stripped to v1.
std::string set_bytes(const model::SampleSet& set, std::uint16_t version = 2) {
  std::ostringstream os(std::ios::binary);
  write_sample_set(os, set, "test", "ParaGraph", 42);
  return version == 1 ? test_io::strip_to_v1(os.str()) : os.str();
}

std::string sample_bytes(const model::TrainingSample& sample) {
  std::ostringstream os(std::ios::binary);
  write_sample(os, sample);
  return os.str();
}

/// Writes `bytes` to a fresh temp file and returns its path.
class TempFile {
 public:
  explicit TempFile(const std::string& bytes) {
    static int counter = 0;
    path_ = testing::TempDir() + "corpus_io_" +
            std::to_string(::getpid()) + "_" + std::to_string(counter++) +
            ".pgds";
    std::ofstream os(path_, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(static_cast<bool>(os));
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// All records of a set in stream order (train then validation), as the
/// (split, serialized-sample) pairs the view should yield.
std::vector<std::pair<Split, std::string>> stream_order(
    const model::SampleSet& set) {
  std::vector<std::pair<Split, std::string>> out;
  for (const auto& s : set.train)
    out.emplace_back(Split::kTrain, sample_bytes(s));
  for (const auto& s : set.validation)
    out.emplace_back(Split::kValidation, sample_bytes(s));
  return out;
}

void expect_view_matches(const DatasetView& view,
                         const model::SampleSet& set) {
  const auto expected = stream_order(set);
  ASSERT_EQ(view.size(), expected.size());
  model::TrainingSample sample;
  // Deliberately out of order: random access must not depend on history.
  for (std::size_t k = view.size(); k-- > 0;) {
    EXPECT_EQ(view.split(k), expected[k].first) << "record " << k;
    view.decode(k, sample);
    EXPECT_EQ(sample_bytes(sample), expected[k].second) << "record " << k;
  }
}

// --- random access vs sequential -----------------------------------------

TEST(CorpusIo, V2RandomAccessMatchesTheWrittenSamples) {
  const auto set = make_set(13, 5, 1);
  const TempFile file(set_bytes(set, 2));
  DatasetView view(file.path());
  EXPECT_EQ(view.format_version(), 2);
  EXPECT_TRUE(view.has_checksums());
  EXPECT_EQ(view.meta().platform, "test");
  expect_view_matches(view, set);
}

TEST(CorpusIo, V1FallbackScanIsEquivalent) {
  const auto set = make_set(9, 4, 2);
  const TempFile file(set_bytes(set, 1));
  DatasetView view(file.path());
  EXPECT_EQ(view.format_version(), 1);
  EXPECT_FALSE(view.has_checksums());
  expect_view_matches(view, set);
}

TEST(CorpusIo, MemoryConstructorViewsBorrowedBytes) {
  const auto set = make_set(6, 2, 3);
  const std::string bytes = set_bytes(set, 2);
  DatasetView view(bytes.data(), bytes.size());
  expect_view_matches(view, set);
}

TEST(CorpusIo, RecordOffsetsAreContiguous) {
  const auto set = make_set(5, 3, 4);
  const std::string bytes = set_bytes(set, 2);
  DatasetView view(bytes.data(), bytes.size());
  std::uint64_t expect = view.record_offset(0);
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view.record_offset(i), expect) << "record " << i;
    EXPECT_GE(view.record_length(i), 13u);
    expect += view.record_length(i);
  }
  EXPECT_LT(expect, bytes.size());  // end marker + index follow
}

// --- degenerates ----------------------------------------------------------

TEST(CorpusIo, EmptyDatasetBothVersions) {
  model::SampleSet set;
  set.target_scaler.fit_bounds(0.0, 1.0);
  set.teams_scaler.fit_bounds(1.0, 2.0);
  set.threads_scaler.fit_bounds(1.0, 2.0);
  for (std::uint16_t version : {std::uint16_t{1}, std::uint16_t{2}}) {
    const std::string bytes = set_bytes(set, version);
    DatasetView view(bytes.data(), bytes.size());
    EXPECT_EQ(view.size(), 0u) << "v" << version;
    EXPECT_EQ(view.format_version(), version);
    const StoredSampleSet loaded = load_sample_set(view);
    EXPECT_TRUE(loaded.set.train.empty());
    EXPECT_TRUE(loaded.set.validation.empty());
  }
}

TEST(CorpusIo, SingleRecordBothVersions) {
  const auto set = make_set(1, 0, 5);
  for (std::uint16_t version : {std::uint16_t{1}, std::uint16_t{2}}) {
    const std::string bytes = set_bytes(set, version);
    DatasetView view(bytes.data(), bytes.size());
    ASSERT_EQ(view.size(), 1u) << "v" << version;
    model::TrainingSample sample;
    view.decode(0, sample);
    EXPECT_EQ(sample_bytes(sample), sample_bytes(set.train[0]));
  }
}

TEST(CorpusIo, HugeRecordRoundTrips) {
  auto set = make_set(3, 0, 6);
  // A ~1 MiB string field dwarfs every other record in the file.
  set.train[1].app_name.assign(1 << 20, 'x');
  set.train[1].variant.assign(4096, 'y');
  for (std::uint16_t version : {std::uint16_t{1}, std::uint16_t{2}}) {
    const std::string bytes = set_bytes(set, version);
    DatasetView view(bytes.data(), bytes.size());
    expect_view_matches(view, set);
    EXPECT_GT(view.record_length(1), std::uint64_t{1} << 20);
  }
}

TEST(CorpusIo, OutOfRangeIndexThrows) {
  const auto set = make_set(2, 0, 7);
  const std::string bytes = set_bytes(set, 2);
  DatasetView view(bytes.data(), bytes.size());
  model::TrainingSample sample;
  EXPECT_THROW(view.decode(2, sample), InternalError);
  EXPECT_THROW((void)view.split(2), InternalError);
}

// --- parallel shard loading -----------------------------------------------

TEST(CorpusIo, ParallelLoadRoundTripsAndIsThreadCountInvariant) {
  const auto set = make_set(23, 9, 8);
  // Serializing the whole loaded set covers samples, order, split
  // partition, and scalers in one comparison: a load, written back, must
  // be the v2 bytes it (or its v1 form) came from.
  const std::string want = set_bytes(set, 2);
  for (std::uint16_t version : {std::uint16_t{1}, std::uint16_t{2}}) {
    const std::string bytes = set_bytes(set, version);
    DatasetView view(bytes.data(), bytes.size());
    auto reserialize = [](const StoredSampleSet& s) {
      std::ostringstream os(std::ios::binary);
      write_sample_set(os, s.set, s.meta.platform, s.meta.representation,
                       s.meta.seed);
      return os.str();
    };
    EXPECT_EQ(reserialize(load_sample_set(view, 1)), want) << "v" << version;
    EXPECT_EQ(reserialize(load_sample_set(view, 3)), want) << "v" << version;
  }
}

// --- reindex --------------------------------------------------------------

TEST(CorpusIo, ReindexMatchesNativeV2Writer) {
  const auto set = make_set(11, 4, 9);
  const TempFile v1(set_bytes(set, 1));
  const std::string v2_native = set_bytes(set, 2);

  const TempFile out{std::string()};
  reindex_dataset(v1.path(), out.path());
  std::ifstream is(out.path(), std::ios::binary);
  std::ostringstream copied;
  copied << is.rdbuf();
  EXPECT_EQ(copied.str(), v2_native);
}

TEST(CorpusIo, ReindexIsIdempotent) {
  const auto set = make_set(7, 2, 10);
  const TempFile v2(set_bytes(set, 2));
  const TempFile out{std::string()};
  reindex_dataset(v2.path(), out.path());
  std::ifstream is(out.path(), std::ios::binary);
  std::ostringstream copied;
  copied << is.rdbuf();
  EXPECT_EQ(copied.str(), set_bytes(set, 2));
}

TEST(CorpusIo, ReindexedV1WriterFileIsItsV2Sibling) {
  // The frozen v1 corpus was written by the former v1 writer; reindexing it
  // must give exactly the v2 file checked in next to it.
  const TempFile out{std::string()};
  reindex_dataset(legacy_path("corpus.pgds"), out.path());
  EXPECT_TRUE(slurp(out.path()) == slurp(legacy_path("corpus_v2.pgds")));
}

// --- error context --------------------------------------------------------

TEST(CorpusIo, ChecksumMismatchNamesTheRecord) {
  const auto set = make_set(4, 0, 11);
  std::string bytes = set_bytes(set, 2);
  DatasetView clean(bytes.data(), bytes.size());
  // Flip one byte inside record 2's body (past the 12-byte frame header and
  // the split tag); the index stays intact, so open succeeds and only
  // decode(2) notices.
  const std::size_t victim =
      static_cast<std::size_t>(clean.record_offset(2)) + 20;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);

  DatasetView view(bytes.data(), bytes.size());
  model::TrainingSample sample;
  view.decode(0, sample);  // untouched records still decode
  try {
    view.decode(2, sample);
    FAIL() << "corrupt record decoded";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("record 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
    // The wrapped message carries the absolute file position of the frame so
    // a corruption report points straight at the bytes.
    EXPECT_NE(std::string(e.what()).find(
                  "byte offset " + std::to_string(clean.record_offset(2))),
              std::string::npos)
        << e.what();
  }
}

TEST(CorpusIo, IndexChecksumMismatchNamesSectionAndOffset) {
  const auto set = make_set(4, 0, 13);
  std::string bytes = set_bytes(set, 2);
  // The 20-byte footer is [index_offset u64][index_size u64][magic u32];
  // read the index offset from it, then flip a byte inside the first index
  // entry. The index self-checksum catches it at open time, and the error
  // must name the 'index' section and its byte offset.
  std::uint64_t index_offset = 0;
  std::memcpy(&index_offset, bytes.data() + bytes.size() - 20, 8);
  ASSERT_LT(index_offset + 12, bytes.size());
  bytes[index_offset + 12] ^= 0x40;

  try {
    DatasetView view(bytes.data(), bytes.size());
    FAIL() << "corrupt index accepted";
  } catch (const FormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("index self-checksum mismatch"), std::string::npos)
        << what;
    EXPECT_NE(what.find("'index' section at byte offset " +
                        std::to_string(index_offset)),
              std::string::npos)
        << what;
  }
}

TEST(CorpusIo, V1FrameHeaderCorruptionNamesTheRecord) {
  const auto set = make_set(4, 0, 12);
  std::string bytes = set_bytes(set, 1);
  DatasetView clean(bytes.data(), bytes.size());
  const std::size_t victim = static_cast<std::size_t>(clean.record_offset(2));
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0xFF);  // break "RECD"

  try {
    DatasetView view(bytes.data(), bytes.size());
    FAIL() << "corrupt scan accepted";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("record 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("frame header"), std::string::npos)
        << e.what();
  }
}

// --- out-of-core streaming trainer ----------------------------------------

model::TrainConfig small_train_config() {
  model::TrainConfig config;
  config.epochs = 4;
  config.batch_size = 4;
  config.learning_rate = 1e-3;
  config.shuffle_seed = 17;
  return config;
}

std::string checkpoint_bytes(const model::ParaGraphModel& model,
                             const model::SampleSet& set) {
  std::ostringstream os(std::ios::binary);
  model::save_checkpoint(os, model,
                         model::CheckpointScalers::from_sample_set(set));
  return os.str();
}

model::ModelConfig tiny_model() {
  return model::ModelConfig{.hidden_dim = 8, .seed = 21};
}

TEST(StreamingTrainer, FullWindowMatchesInRamBitwise) {
  const auto set = make_set(19, 6, 13);
  model::ParaGraphModel in_ram(tiny_model());
  const auto r1 = model::train_model(in_ram, set, small_train_config());

  model::ParaGraphModel streamed(tiny_model());
  model::StreamTrainConfig stream;
  stream.base = small_train_config();
  stream.window = set.train.size() + 100;  // window covers the corpus
  const model::VectorSampleStore store(set.train);
  const auto r2 = model::train_model_streaming(streamed, store, set, stream);

  EXPECT_EQ(checkpoint_bytes(streamed, set), checkpoint_bytes(in_ram, set));
  EXPECT_EQ(r2.final_rmse_us, r1.final_rmse_us);
  ASSERT_EQ(r2.history.size(), r1.history.size());
  for (std::size_t e = 0; e < r1.history.size(); ++e) {
    EXPECT_EQ(r2.history[e].train_mse_scaled, r1.history[e].train_mse_scaled);
    EXPECT_EQ(r2.history[e].val_rmse_us, r1.history[e].val_rmse_us);
  }
}

TEST(StreamingTrainer, SmallWindowsStayBitwiseIdentical) {
  const auto set = make_set(19, 6, 13);
  model::ParaGraphModel reference(tiny_model());
  (void)model::train_model(reference, set, small_train_config());
  const std::string want = checkpoint_bytes(reference, set);

  const model::VectorSampleStore store(set.train);
  for (std::size_t window : {std::size_t{1}, std::size_t{4}, std::size_t{8},
                             std::size_t{13}}) {
    model::ParaGraphModel streamed(tiny_model());
    model::StreamTrainConfig stream;
    stream.base = small_train_config();
    stream.window = window;  // rounded up/down to whole batches internally
    (void)model::train_model_streaming(streamed, store, set, stream);
    EXPECT_EQ(checkpoint_bytes(streamed, set), want) << "window " << window;
  }
}

TEST(StreamingTrainer, LoadThreadCountNeverChangesTheModel) {
  const auto set = make_set(17, 5, 14);
  const model::VectorSampleStore store(set.train);
  std::string want;
  for (int threads : {1, 3}) {
    model::ParaGraphModel streamed(tiny_model());
    model::StreamTrainConfig stream;
    stream.base = small_train_config();
    stream.window = 8;
    stream.load_threads = threads;
    (void)model::train_model_streaming(streamed, store, set, stream);
    const std::string got = checkpoint_bytes(streamed, set);
    if (want.empty()) want = got;
    EXPECT_EQ(got, want) << "threads " << threads;
  }
}

TEST(StreamingTrainer, TrainsOutOfCoreFromAnMmappedV2Corpus) {
  // End to end: write a v2 corpus, mmap it, and train without ever holding
  // the training split in RAM — byte-identical to the in-RAM trainer.
  const auto set = make_set(15, 5, 15);
  model::ParaGraphModel in_ram(tiny_model());
  (void)model::train_model(in_ram, set, small_train_config());

  const TempFile file(set_bytes(set, 2));
  DatasetView view(file.path());
  // The view holds the full stream order (train then validation); build a
  // train-only store via the index prefix.
  ASSERT_EQ(view.split(set.train.size() - 1), Split::kTrain);
  class PrefixStore final : public model::SampleStore {
   public:
    PrefixStore(const DatasetView& view, std::size_t n) : view_(view), n_(n) {}
    std::size_t size() const override { return n_; }
    void load(std::size_t i, model::TrainingSample& out) const override {
      view_.decode(i, out);
    }

   private:
    const DatasetView& view_;
    std::size_t n_;
  };
  const PrefixStore store(view, set.train.size());

  model::ParaGraphModel streamed(tiny_model());
  model::StreamTrainConfig stream;
  stream.base = small_train_config();
  stream.window = 8;
  (void)model::train_model_streaming(streamed, store, set, stream);
  EXPECT_EQ(checkpoint_bytes(streamed, set), checkpoint_bytes(in_ram, set));
}

}  // namespace
}  // namespace pg::io
