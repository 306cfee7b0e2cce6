// Shared infrastructure for the per-table / per-figure benchmark binaries.
//
// Every bench:
//   * generates the simulated dataset at the scale given by PARAGRAPH_SCALE
//     (smoke | default | full),
//   * trains whatever models the experiment needs (epochs overridable via
//     PARAGRAPH_EPOCHS),
//   * prints the paper-shaped table with the paper's published values
//     alongside, and writes a CSV next to the binary,
//   * optionally emits a machine-readable summary via `--json <path>`
//     (JsonReport + json_path_from_args below).
//
// The argv helpers (option_value, has_flag, int_option) are the one copy
// every bench's flag parsing goes through, and median_of the one copy of
// median-of-N timing.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compoff/compoff.hpp"
#include "dataset/corpus_cache.hpp"
#include "dataset/generator.hpp"
#include "dataset/sample_builder.hpp"
#include "model/engine.hpp"
#include "model/metrics.hpp"
#include "model/trainer.hpp"
#include "sim/platform.hpp"
#include "support/csv.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace pg::bench {

struct BenchConfig {
  RunScale scale = run_scale_from_env();
  int epochs = static_cast<int>(env_int("PARAGRAPH_EPOCHS", 60));
  std::size_t hidden_dim =
      static_cast<std::size_t>(env_int("PARAGRAPH_HIDDEN", 24));
  std::uint64_t seed = static_cast<std::uint64_t>(env_int("PARAGRAPH_SEED", 2024));
};

inline void print_header(const std::string& title, const BenchConfig& config) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("scale=%s epochs=%d hidden=%zu seed=%llu\n\n",
              to_string(config.scale), config.epochs, config.hidden_dim,
              static_cast<unsigned long long>(config.seed));
}

/// The argument following `name` in argv, or nullptr when absent.
inline const char* option_value(int argc, char** argv, const char* name) {
  for (int a = 1; a + 1 < argc; ++a)
    if (std::strcmp(argv[a], name) == 0) return argv[a + 1];
  return nullptr;
}

/// Whether `name` appears anywhere in argv.
inline bool has_flag(int argc, char** argv, const char* name) {
  for (int a = 1; a < argc; ++a)
    if (std::strcmp(argv[a], name) == 0) return true;
  return false;
}

/// `name`'s value through pg::int_in_range: `fallback` when absent or not
/// an integer, clamped to [lo, hi] otherwise (either with a stderr line).
inline std::int64_t int_option(int argc, char** argv, const char* name,
                               std::int64_t fallback, std::int64_t lo,
                               std::int64_t hi) {
  const char* value = option_value(argc, argv, name);
  return value != nullptr ? int_in_range(name, value, fallback, lo, hi)
                          : fallback;
}

/// Returns the path following a `--json` flag in argv, or "" when absent.
inline std::string json_path_from_args(int argc, char** argv) {
  const char* path = option_value(argc, argv, "--json");
  return path != nullptr ? path : "";
}

/// Median of `reps` calls of `fn`, each returning one timing (the upper of
/// the two middle values when `reps` is even).
template <typename Fn>
double median_of(int reps, Fn&& fn) {
  std::vector<double> runs;
  runs.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) runs.push_back(fn());
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

/// Flat machine-readable bench summary: string and numeric key/value pairs
/// serialised as one JSON object, insertion-ordered. Numbers are printed
/// with enough digits to round-trip a double.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) {
    add("bench", std::move(bench_name));
  }

  void add(const std::string& key, const std::string& value) {
    // Appends rather than operator+ chains: GCC 12 at -O3 emits a bogus
    // -Wrestrict for operator+(const char*, std::string&&) (GCC PR105329).
    std::string quoted = "\"";
    quoted += escaped(value);
    quoted += '"';
    entries_.push_back({key, std::move(quoted)});
  }
  void add(const std::string& key, const char* value) {
    add(key, std::string(value));
  }
  void add(const std::string& key, double value) {
    if (!std::isfinite(value)) {
      // Bare nan/inf is not valid JSON; a diverged run should still parse.
      entries_.push_back({key, "null"});
      return;
    }
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    entries_.push_back({key, buffer});
  }
  void add(const std::string& key, std::size_t value) {
    entries_.push_back({key, std::to_string(value)});
  }
  void add(const std::string& key, int value) {
    entries_.push_back({key, std::to_string(value)});
  }

  [[nodiscard]] std::string render() const {
    std::string out = "{\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out += "  \"";
      out += entries_[i].key;
      out += "\": ";
      out += entries_[i].value;
      out += i + 1 < entries_.size() ? ",\n" : "\n";
    }
    out += "}\n";
    return out;
  }

  /// Writes the report; returns false (with a stderr note) on I/O failure.
  bool write(const std::string& path) const {
    std::ofstream file(path);
    if (!file) {
      std::fprintf(stderr, "failed to open %s for writing\n", path.c_str());
      return false;
    }
    file << render();
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  static std::string escaped(const std::string& raw) {
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  struct Entry {
    std::string key;
    std::string value;  // pre-serialised
  };
  std::vector<Entry> entries_;
};

/// The machine header of a BENCH_*.json: hardware threads, CPU model (the
/// first "model name" of /proc/cpuinfo, where it exists), compiler and
/// build type — what a reader needs before comparing two files.
inline void add_machine_header(JsonReport& report) {
  report.add("machine_threads",
             static_cast<std::size_t>(std::thread::hardware_concurrency()));
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto start = line.find_first_not_of(" \t:", line.find(':'));
    if (start != std::string::npos) cpu = line.substr(start);
    break;
  }
  report.add("cpu_model", cpu);
#if defined(__clang__)
  report.add("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  report.add("compiler", "gcc " __VERSION__);
#else
  report.add("compiler", "unknown");
#endif
#if defined(NDEBUG)
  report.add("build", "Release");
#else
  report.add("build", "Debug");
#endif
}

/// Seeded request-index picker shared by every serve load mode: draws from
/// a Zipf(s) distribution over `count` requests by inverse-CDF sampling
/// (p_i proportional to 1/(i+1)^s). s = 0 degenerates to the uniform
/// distribution exactly, so --uniform and --zipf run the same code path and
/// differ only in the skew parameter — one seeded generator, no mode drift.
class RequestPicker {
 public:
  RequestPicker(std::size_t count, double skew, std::uint64_t seed)
      : rng_(seed), skew_(skew) {
    cdf_.reserve(count);
    double total = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t next() {
    const double u = rng_.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

  [[nodiscard]] double skew() const { return skew_; }
  /// Request-mix descriptor for bench JSON ("uniform" or "zipf").
  [[nodiscard]] const char* mix_name() const {
    return skew_ == 0.0 ? "uniform" : "zipf";
  }

 private:
  std::vector<double> cdf_;
  Rng rng_;
  double skew_;
};

/// Everything one (platform, representation) training run produces. The
/// trained model is kept so benches can serve further predictions through
/// an InferenceEngine.
struct PlatformRun {
  sim::Platform platform;
  std::vector<dataset::RawDataPoint> points;
  model::SampleSet set;
  model::TrainResult result;
  std::shared_ptr<model::ParaGraphModel> model;
};

/// Generates the platform's dataset, builds samples at `representation`,
/// trains a fresh ParaGraph model, and returns everything. The final
/// validation predictions come from the trainer's own InferenceEngine pass;
/// the fallback below serves them through a fresh engine when training was
/// configured not to produce them.
///
/// When PARAGRAPH_CORPUS_DIR is set, the sample set is loaded from (or, on
/// first run, written to) a .pgds corpus file there instead of re-parsing
/// and re-encoding the whole sweep — byte-exact, so results are unchanged.
inline PlatformRun train_platform(
    const sim::Platform& platform, const BenchConfig& config,
    graph::Representation representation = graph::Representation::kParaGraph,
    const model::TrainConfig* train_override = nullptr) {
  PlatformRun run;
  run.platform = platform;

  dataset::GenerationConfig gen;
  gen.scale = config.scale;
  gen.seed = config.seed;
  run.points = dataset::generate_dataset(platform, gen);

  dataset::SampleBuildConfig build;
  build.representation = representation;
  dataset::CorpusKey key;
  key.platform_name = platform.name;
  key.scale = config.scale;
  key.representation = representation;
  key.seed = config.seed;
  key.log_target = build.log_target;
  run.set = dataset::load_or_build_sample_set(
      env_string("PARAGRAPH_CORPUS_DIR", ""), key, run.points, build);

  model::ModelConfig model_config;
  model_config.hidden_dim = config.hidden_dim;
  run.model = std::make_shared<model::ParaGraphModel>(model_config);

  model::TrainConfig train;
  if (train_override != nullptr) train = *train_override;
  train.epochs = train_override != nullptr ? train_override->epochs : config.epochs;
  run.result = model::train_model(*run.model, run.set, train);

  if (run.result.val_predictions_us.size() != run.set.validation.size()) {
    model::InferenceEngine engine(*run.model);
    run.result.val_predictions_us =
        engine.predict_samples_us(run.set.validation, run.set);
  }
  return run;
}

/// Actual runtimes of the validation split, in microseconds.
inline std::vector<double> validation_actuals(const model::SampleSet& set) {
  std::vector<double> actual;
  actual.reserve(set.validation.size());
  for (const auto& s : set.validation) actual.push_back(s.runtime_us);
  return actual;
}

}  // namespace pg::bench
