// Differential test for paragraph-cli: the compile|encode|predict pipeline
// run through the CLI binary must reproduce the in-process path *bitwise* —
// same graph bytes, same sample bytes, and predictions identical to
// InferenceEngine::predict_batch on the same inputs.
//
// The CLI binary path and the golden corpus directory are injected by CMake
// (PG_CLI_PATH / PG_GOLDEN_DIR); the suite shells out via std::system.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/dataset_view.hpp"
#include "io/pgraph_io.hpp"
#include "model/checkpoint.hpp"
#include "model/engine.hpp"
#include "model/paragraph_model.hpp"
#include "tensor/simd.hpp"

#ifndef PG_CLI_PATH
#error "PG_CLI_PATH must point at the paragraph-cli binary"
#endif
#ifndef PG_GOLDEN_DIR
#error "PG_GOLDEN_DIR must point at tests/golden"
#endif
#ifndef PG_GOLDEN_LEGACY_DIR
#error "PG_GOLDEN_LEGACY_DIR must point at tests/golden_legacy"
#endif

namespace pg {
namespace {

const char* kGoldenNames[] = {"matvec_cpu", "matmul_gpu_collapse_mem",
                              "corr_gpu_mem", "gauss_seidel_cpu_collapse"};

std::string golden_path(const std::string& name) {
  return std::string(PG_GOLDEN_DIR) + "/" + name;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string quoted(const std::string& path) { return "'" + path + "'"; }

/// Runs the CLI with the given argument string; returns the exit status.
int run_cli(const std::string& args) {
  const std::string command = std::string(PG_CLI_PATH) + " " + args;
  const int status = std::system(command.c_str());
  return status;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(is)) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

TEST(CliCompile, ReproducesGoldenGraphBytes) {
  // teams/threads/workers per tests/golden/MANIFEST.txt.
  struct Case {
    const char* name;
    int workers;
  };
  const Case cases[] = {{"matvec_cpu", 8},
                        {"matmul_gpu_collapse_mem", 128 * 64},
                        {"corr_gpu_mem", 256 * 128},
                        {"gauss_seidel_cpu_collapse", 16}};
  for (const Case& c : cases) {
    const std::string out = temp_path(std::string(c.name) + ".pgraph");
    ASSERT_EQ(run_cli(std::string("compile ") + quoted(golden_path(c.name) + ".c") +
                      " -o " + quoted(out) + " --workers " +
                      std::to_string(c.workers) + " > /dev/null"),
              0)
        << c.name;
    EXPECT_EQ(slurp(out), slurp(golden_path(c.name) + ".pgraph")) << c.name;
  }
}

TEST(CliEncode, ReproducesGoldenSampleBytes) {
  const std::string out = temp_path("matvec_cpu.psample");
  ASSERT_EQ(run_cli(std::string("encode ") + quoted(golden_path("matvec_cpu.pgraph")) +
                    " -o " + quoted(out) + " --meta " +
                    quoted(golden_path("corpus.pgds")) +
                    " --teams 1 --threads 8 --runtime-us 1500 --app MV "
                    "--app-id 5 --variant cpu > /dev/null"),
            0);
  EXPECT_EQ(slurp(out), slurp(golden_path("matvec_cpu.psample")));
}

TEST(CliPredict, BitwiseEqualToInProcessInferenceEngine) {
  // A deterministic checkpoint: fresh model (fixed init seed) + the golden
  // corpus scalers. The CLI and the in-process path below both start from
  // this same file.
  model::ModelConfig config;
  model::ParaGraphModel model(config);

  io::StoredSampleSet stored =
      io::load_sample_set(io::DatasetView(golden_path("corpus.pgds")));
  const model::CheckpointScalers scalers =
      model::CheckpointScalers::from_sample_set(stored.set);
  const std::string ckpt = temp_path("golden.ckpt");
  model::save_checkpoint_file(ckpt, model, scalers);

  // CLI path: predict over all four golden samples in one batch.
  const std::string preds = temp_path("preds.tsv");
  std::string sample_args;
  for (const char* name : kGoldenNames)
    sample_args += std::string(" ") + quoted(golden_path(std::string(name) + ".psample"));
  ASSERT_EQ(run_cli(std::string("predict --checkpoint ") + quoted(ckpt) + " --out " +
                    quoted(preds) + sample_args),
            0);

  // Parse the TSV: path \t scaled \t microseconds.
  std::vector<double> cli_scaled;
  std::vector<double> cli_us;
  {
    std::ifstream in(preds);
    ASSERT_TRUE(static_cast<bool>(in));
    std::string path_col;
    double scaled = 0.0;
    double us = 0.0;
    while (in >> path_col >> scaled >> us) {
      cli_scaled.push_back(scaled);
      cli_us.push_back(us);
    }
  }
  ASSERT_EQ(cli_scaled.size(), std::size(kGoldenNames));

  // In-process path: restore the checkpoint into a fresh model, read the
  // same .psample files, predict through InferenceEngine::predict_batch.
  model::ParaGraphModel restored(config);
  const model::CheckpointScalers loaded =
      model::load_checkpoint_file(ckpt, restored);
  model::SampleSet set;
  loaded.apply_to(set);

  std::vector<model::EncodedGraph> graphs;
  std::vector<std::array<float, 2>> aux;
  for (const char* name : kGoldenNames) {
    model::TrainingSample sample =
        io::read_sample_file(golden_path(std::string(name) + ".psample"));
    aux.push_back(sample.aux);
    graphs.push_back(std::move(sample.graph));
  }
  std::vector<double> expected_scaled(graphs.size());
  model::InferenceEngine engine(restored);
  engine.predict_batch(graphs, aux, expected_scaled);

  for (std::size_t i = 0; i < expected_scaled.size(); ++i) {
    // %.17g round-trips doubles exactly, so bitwise equality is testable
    // through the text file.
    EXPECT_EQ(cli_scaled[i], expected_scaled[i]) << kGoldenNames[i];
    EXPECT_EQ(cli_us[i], set.from_target(expected_scaled[i])) << kGoldenNames[i];
  }
}

TEST(CliPredict, MistypedSimdLevelIsReportedOnStderr) {
  // PARAGRAPH_SIMD=avx9 names no level: the run still succeeds on the
  // probed level, and stderr carries exactly one line saying so (next to
  // predict's own "simd: <level>" line).
  model::ModelConfig config;
  model::ParaGraphModel model(config);
  io::StoredSampleSet stored =
      io::load_sample_set(io::DatasetView(golden_path("corpus.pgds")));
  const std::string ckpt = temp_path("simd_warning.ckpt");
  model::save_checkpoint_file(
      ckpt, model, model::CheckpointScalers::from_sample_set(stored.set));
  const std::string err = temp_path("simd_warning.err");
  const std::string command =
      std::string("PARAGRAPH_SIMD=avx9 ") + PG_CLI_PATH + " predict --checkpoint " +
      quoted(ckpt) + " --out /dev/null " +
      quoted(golden_path("matvec_cpu.psample")) + " 2> " + quoted(err);
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  const std::string text = slurp(err);
  const std::string line =
      std::string("paragraph: PARAGRAPH_SIMD=avx9 is not a known level; using ") +
      tensor::simd::level_name(tensor::simd::max_supported_level()) + "\n";
  EXPECT_NE(text.find(line), std::string::npos) << text;
  EXPECT_EQ(text.find("PARAGRAPH_SIMD"), text.rfind("PARAGRAPH_SIMD")) << text;

  // With --simd the variable decides nothing, so nothing is reported.
  const std::string explicit_command =
      std::string("PARAGRAPH_SIMD=avx9 ") + PG_CLI_PATH +
      " predict --simd scalar --checkpoint " + quoted(ckpt) +
      " --out /dev/null " + quoted(golden_path("matvec_cpu.psample")) +
      " 2> " + quoted(err);
  const int explicit_status = std::system(explicit_command.c_str());
  ASSERT_TRUE(WIFEXITED(explicit_status));
  EXPECT_EQ(WEXITSTATUS(explicit_status), 0);
  const std::string explicit_text = slurp(err);
  EXPECT_EQ(explicit_text.find("PARAGRAPH_SIMD"), std::string::npos)
      << explicit_text;
  EXPECT_NE(explicit_text.find("simd: scalar\n"), std::string::npos)
      << explicit_text;
}

TEST(CliDump, SucceedsOnEveryGoldenKind) {
  EXPECT_EQ(run_cli(std::string("dump ") + quoted(golden_path("matvec_cpu.pgraph")) +
                    " > /dev/null"),
            0);
  EXPECT_EQ(run_cli(std::string("dump ") + quoted(golden_path("matvec_cpu.psample")) +
                    " > /dev/null"),
            0);
  EXPECT_EQ(run_cli(std::string("dump ") + quoted(golden_path("corpus.pgds")) +
                    " > /dev/null"),
            0);
}

TEST(CliDump, SampleReportsItsFeatureLayoutAndSectionSize) {
  // matvec_cpu has 59 nodes: 16 + 59 * 5 bytes of kinds and literals, or
  // 16 + 59 * 45 * 4 bytes in the frozen dense fixture.
  const std::string out = temp_path("dump_sample.txt");
  ASSERT_EQ(run_cli("dump " + quoted(golden_path("matvec_cpu.psample")) +
                    " > " + quoted(out)),
            0);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("features: 59 nodes (kind u8 + literal f32)\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("feature section: 311 bytes\n"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("converted"), std::string::npos) << text;

  const std::string legacy =
      std::string(PG_GOLDEN_LEGACY_DIR) + "/matvec_cpu.psample";
  ASSERT_EQ(run_cli("dump " + quoted(legacy) + " > " + quoted(out)), 0);
  const std::string legacy_text = slurp(out);
  EXPECT_NE(legacy_text.find("features: 59 nodes (kind u8 + literal f32)\n"),
            std::string::npos)
      << legacy_text;
  EXPECT_NE(legacy_text.find("feature section: 10636 bytes (converted from "
                             "the legacy dense layout)\n"),
            std::string::npos)
      << legacy_text;
}

TEST(CliErrors, CleanFailuresNotCrashes) {
  // Corrupt file -> exit 1 (clean FormatError), not a signal.
  const std::string corrupt = temp_path("corrupt.pgraph");
  {
    std::ofstream os(corrupt, std::ios::binary);
    os << "XGIOBIN\x1a garbage";
  }
  const int status = run_cli(std::string("dump ") + quoted(corrupt) + " 2> /dev/null");
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);

  // Unknown subcommand -> usage (exit 2).
  const int usage_status = run_cli("frobnicate 2> /dev/null");
  ASSERT_TRUE(WIFEXITED(usage_status));
  EXPECT_EQ(WEXITSTATUS(usage_status), 2);

  // Parse error in a source file -> exit 1 with diagnostics.
  const std::string bad_src = temp_path("bad.c");
  {
    std::ofstream os(bad_src);
    os << "void broken( {\n";
  }
  const int compile_status =
      run_cli(std::string("compile ") + quoted(bad_src) + " -o /dev/null 2> /dev/null");
  ASSERT_TRUE(WIFEXITED(compile_status));
  EXPECT_EQ(WEXITSTATUS(compile_status), 1);
}

TEST(CliCorpus, GoldenRegenerationIsByteIdentical) {
  // The CI drift check in script form: regenerating the golden corpus into
  // a temp dir reproduces every checked-in file byte for byte.
  const std::string regen = temp_path("golden_regen");
  ASSERT_EQ(run_cli(std::string("corpus --golden --out ") + quoted(regen) + " > /dev/null"),
            0);
  const char* files[] = {"MANIFEST.txt",
                         "corpus.pgds",
                         "matvec_cpu.c",
                         "matvec_cpu.pgraph",
                         "matvec_cpu.pgraph.txt",
                         "matvec_cpu.psample",
                         "matmul_gpu_collapse_mem.psample",
                         "corr_gpu_mem.psample",
                         "gauss_seidel_cpu_collapse.psample"};
  for (const char* file : files)
    EXPECT_EQ(slurp(regen + "/" + file), slurp(golden_path(file))) << file;
}

}  // namespace
}  // namespace pg
