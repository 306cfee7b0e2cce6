// paragraph-cli: end-to-end driver over the pg::io binary formats.
//
// Subcommands (see docs/FORMAT.md and README for the workflow):
//   compile  kernel source (.c)      -> .pgraph   (parse + graph build)
//   encode   .pgraph + scaler meta   -> .psample  (model tensors)
//   predict  .psample* + checkpoint  -> runtime predictions, batched
//            through model::InferenceEngine::predict_batch
//   dump     any pg::io file         -> human-readable summary
//   corpus   batch-generate the paper's kernel/variant sweep into a
//            format-v2 .pgds in a directory (--golden emits the small
//            pinned regression corpus under tests/golden/)
//   reindex  .pgds (v1 or v2)        -> format-v2 .pgds: record bytes
//            copied verbatim, fresh offset/checksum index appended (the
//            output may be the input itself)
//   client   .psample* -> predictions served by a running paragraph-serve
//            daemon (the serve protocol's reference client; retries on
//            backpressure)
//
// Exit codes: 0 success, 1 runtime/input failure (bad file, parse error,
// a float option that is not a finite number, a `client --port` that is
// not an integer in [1, 65535]), 2 usage error. Any other integer option
// goes through pg::int_in_range: a non-integer value falls back to the
// default and an out-of-range one is clamped, each with one stderr line.
// A port names a daemon, so it is checked exactly, never replaced. All
// binary-format failures surface as io::FormatError with a one-line
// message — never a crash.
#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dataset/generator.hpp"
#include "dataset/kernel_spec.hpp"
#include "dataset/sample_builder.hpp"
#include "dataset/variants.hpp"
#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "io/binary.hpp"
#include "io/dataset_view.hpp"
#include "io/pgraph_io.hpp"
#include "model/checkpoint.hpp"
#include "model/engine.hpp"
#include "serve/client.hpp"
#include "sim/platform.hpp"
#include "support/check.hpp"
#include "support/env.hpp"
#include "tensor/simd.hpp"

namespace {

using namespace pg;

int usage() {
  std::fprintf(stderr, R"(usage: paragraph-cli <subcommand> [args]

  compile <src.c> -o <out.pgraph> [--representation raw|augmented|paragraph]
          [--workers N] [--fallback N] [--text <out.txt>]
  encode  <in.pgraph> -o <out.psample> (--meta <file.pgds> | scaler flags)
          --teams N --threads N [--runtime-us R] [--app NAME] [--app-id K]
          [--variant NAME]
          scaler flags: --child-weight-scale S --target-bounds LO,HI
                        --teams-bounds LO,HI --threads-bounds LO,HI
                        [--log-target]
  predict --checkpoint <ckpt> [--hidden N] [--out <file>] [--threads N]
          [--simd scalar|sse2|avx2]
          [--log-target (override; normally read from the checkpoint)]
          <sample.psample>...
  dump    <file.pgraph|.psample|.pgds>
  client  --port P [--timeout-ms T] [--ping] [--out <file>]
          <sample.psample>...
  corpus  --out <dir> [--threads N] [--simd scalar|sse2|avx2]
          (--golden | [--platform power9|v100|epyc|mi50]
          [--scale smoke|default|full] [--seed N]
          [--representation raw|augmented|paragraph] [--log-target])
  reindex <in.pgds> <out.pgds>   (v1 or v2 in, v2 out; out may be in)

  predict/corpus worker threads: --threads N, else the PARAGRAPH_THREADS
  environment variable, else the OpenMP default. (encode's --threads is the
  kernel launch config, not a worker count.)
  predict/corpus kernel dispatch: --simd LEVEL, else the PARAGRAPH_SIMD
  environment variable, else the best level the CPU supports. Results are
  bitwise-identical at every level; dump prints the active one.
)");
  return 2;
}

// --- tiny argv helpers ----------------------------------------------------

/// Largest worker or launch-configuration count (--workers, --teams,
/// --threads of encode) an integer option accepts.
constexpr std::int64_t kMaxLaunch = std::int64_t{1} << 20;

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;  // --flag value
  std::vector<std::string> flags;              // bare --flag

  [[nodiscard]] bool has_flag(const std::string& name) const {
    return std::find(flags.begin(), flags.end(), name) != flags.end();
  }
  [[nodiscard]] std::optional<std::string> option(const std::string& name) const {
    const auto it = options.find(name);
    if (it == options.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] std::string required(const std::string& name) const {
    const auto v = option(name);
    if (!v) throw std::runtime_error("missing required option " + name);
    return *v;
  }
  /// `name`'s value through pg::int_in_range: `fallback` when absent or
  /// not an integer, clamped to [lo, hi] otherwise.
  [[nodiscard]] std::int64_t int_option(const std::string& name,
                                        std::int64_t fallback, std::int64_t lo,
                                        std::int64_t hi) const {
    const auto v = option(name);
    return v ? int_in_range(name.c_str(), *v, fallback, lo, hi) : fallback;
  }
  [[nodiscard]] double double_option(const std::string& name,
                                     double fallback) const {
    const auto v = option(name);
    if (!v) return fallback;
    const auto parsed = parse_finite(*v);
    if (!parsed)
      throw std::runtime_error(name + "=" + *v + " is not a finite number");
    return *parsed;
  }
};

/// Options that take a value; everything else starting with "--" is a flag.
Args parse_args(int argc, char** argv, int first) {
  static const char* kValued[] = {
      "-o",          "--representation", "--workers",      "--fallback",
      "--text",      "--meta",           "--teams",        "--threads",
      "--runtime-us", "--app",           "--app-id",       "--variant",
      "--checkpoint", "--hidden",        "--out",          "--platform",
      "--scale",     "--seed",           "--simd",         "--child-weight-scale",
      "--target-bounds", "--teams-bounds", "--threads-bounds",
      "--port",      "--timeout-ms"};
  Args args;
  for (int a = first; a < argc; ++a) {
    const std::string arg = argv[a];
    bool valued = false;
    for (const char* name : kValued) {
      if (arg == name) {
        if (a + 1 >= argc)
          throw std::runtime_error("option " + arg + " needs a value");
        args.options[arg] = argv[++a];
        valued = true;
        break;
      }
    }
    if (valued) continue;
    if (arg.rfind("--", 0) == 0)
      args.flags.push_back(arg);
    else
      args.positional.push_back(arg);
  }
  return args;
}

graph::Representation representation_from(const std::string& name) {
  if (name == "raw") return graph::Representation::kRawAst;
  if (name == "augmented") return graph::Representation::kAugmentedAst;
  if (name == "paragraph") return graph::Representation::kParaGraph;
  throw std::runtime_error("unknown representation '" + name +
                           "' (raw|augmented|paragraph)");
}

/// `name`'s "LO,HI" value (default "0,1") -> pair of finite doubles.
std::pair<double, double> bounds_from(const Args& args,
                                      const std::string& name) {
  const std::string text = args.option(name).value_or("0,1");
  const auto comma = text.find(',');
  std::optional<double> lo, hi;
  if (comma != std::string::npos) {
    lo = parse_finite(text.substr(0, comma));
    hi = parse_finite(text.substr(comma + 1));
  }
  if (!lo || !hi)
    throw std::runtime_error(name + "=" + text +
                             " is not LO,HI (two finite numbers)");
  return {*lo, *hi};
}

/// The file named by --out, else stdout.
std::FILE* open_out(const Args& args) {
  const auto path = args.option("--out");
  if (!path) return stdout;
  std::FILE* out = std::fopen(path->c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot open " + *path);
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- compile --------------------------------------------------------------

int cmd_compile(const Args& args) {
  if (args.positional.size() != 1) return usage();
  const std::string source = read_file(args.positional[0]);

  const frontend::ParseResult parsed = frontend::parse_source(source);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: parse failed\n%s\n", args.positional[0].c_str(),
                 parsed.diagnostics.summary().c_str());
    return 1;
  }

  graph::BuildOptions options;
  options.representation =
      representation_from(args.option("--representation").value_or("paragraph"));
  options.parallel_workers = args.int_option("--workers", 1, 1, kMaxLaunch);
  options.unknown_trip_fallback =
      args.int_option("--fallback", 100, 0, 1'000'000'000);
  const graph::ProgramGraph graph = graph::build_graph(parsed.root(), options);

  io::write_graph_file(args.required("-o"), graph);
  if (const auto text = args.option("--text")) {
    std::ofstream os(*text);
    if (!os) throw std::runtime_error("cannot open " + *text);
    graph.serialize(os);
  }
  std::printf("%s: %zu nodes, %zu edges -> %s\n", args.positional[0].c_str(),
              graph.num_nodes(), graph.num_edges(),
              args.required("-o").c_str());
  return 0;
}

// --- encode ---------------------------------------------------------------

io::DatasetMeta meta_from_args(const Args& args) {
  if (const auto meta_path = args.option("--meta"))
    return io::DatasetView(*meta_path).meta();
  io::DatasetMeta meta;
  meta.child_weight_scale = args.double_option("--child-weight-scale", 1.0);
  meta.log_target = args.has_flag("--log-target");
  const auto target = bounds_from(args, "--target-bounds");
  const auto teams = bounds_from(args, "--teams-bounds");
  const auto threads = bounds_from(args, "--threads-bounds");
  meta.target_min = target.first;
  meta.target_max = target.second;
  meta.teams_min = teams.first;
  meta.teams_max = teams.second;
  meta.threads_min = threads.first;
  meta.threads_max = threads.second;
  return meta;
}

/// Graph + raw launch config/runtime -> scaled TrainingSample, through the
/// canonical dataset::make_training_sample recipe — the CLI path is
/// bitwise-identical to the in-process one because it IS the in-process one.
model::TrainingSample encode_sample(const graph::ProgramGraph& graph,
                                    const io::DatasetMeta& meta,
                                    std::int64_t teams, std::int64_t threads,
                                    double runtime_us, std::int32_t app_id,
                                    std::string app_name, std::string variant) {
  model::SampleSet scalers;
  meta.apply_scalers(scalers);
  return dataset::make_training_sample(graph, scalers, teams, threads,
                                       runtime_us, app_id, std::move(app_name),
                                       std::move(variant));
}

int cmd_encode(const Args& args) {
  if (args.positional.size() != 1) return usage();
  const graph::ProgramGraph graph = io::read_graph_file(args.positional[0]);
  const io::DatasetMeta meta = meta_from_args(args);

  const model::TrainingSample sample = encode_sample(
      graph, meta, args.int_option("--teams", 1, 1, kMaxLaunch),
      args.int_option("--threads", 1, 1, kMaxLaunch),
      args.double_option("--runtime-us", 0.0),
      static_cast<std::int32_t>(
          args.int_option("--app-id", -1, -1, INT32_MAX)),
      args.option("--app").value_or(""), args.option("--variant").value_or(""));

  io::write_sample_file(args.required("-o"), sample);
  std::printf("%s: %zu nodes, %zu relation edges -> %s\n",
              args.positional[0].c_str(), sample.graph.relations.num_nodes,
              sample.graph.relations.num_edges(), args.required("-o").c_str());
  return 0;
}

// --- predict --------------------------------------------------------------

/// Resolves the worker-thread count for predict/corpus: --threads beats
/// PARAGRAPH_THREADS beats the OpenMP default. Must run before any engine
/// or generator is built (their per-thread pools size off the OpenMP max).
void apply_thread_override(const Args& args) {
  const auto flag = args.option("--threads");
  const std::int64_t threads = env_thread_count(flag ? flag->c_str() : nullptr);
  if (threads > 0) omp_set_num_threads(static_cast<int>(threads));
}

/// Resolves the kernel dispatch level for predict/corpus: --simd beats
/// PARAGRAPH_SIMD (already folded into the startup probe) beats the CPU
/// probe. An explicitly named but unsupported level clamps down to the best
/// supported one (same fallback the env var gets); an unknown name is a
/// usage error. Results are bitwise-identical at every level, so this knob
/// is for benchmarking and for pinning the parity contract in CI.
void apply_simd_override(const Args& args) {
  const auto level = args.option("--simd");
  if (!level) return;
  const auto parsed = tensor::simd::level_from_name(*level);
  if (!parsed)
    throw std::runtime_error("unknown SIMD level '" + *level +
                             "' (scalar|sse2|avx2)");
  tensor::simd::set_active_level(*parsed);
}

int cmd_predict(const Args& args) {
  if (args.positional.empty()) return usage();
  apply_thread_override(args);
  apply_simd_override(args);
  // Diagnostics to stderr so --out/stdout prediction bytes stay stable
  // across dispatch levels (cli_test compares them against the engine).
  std::fprintf(stderr, "simd: %s\n",
               tensor::simd::level_name(tensor::simd::active_level()));

  model::ModelConfig config;
  config.hidden_dim =
      static_cast<std::size_t>(args.int_option("--hidden", 24, 1, 4096));
  model::ParaGraphModel model(config);
  const model::CheckpointScalers scalers =
      model::load_checkpoint_file(args.required("--checkpoint"), model);

  model::SampleSet set;
  scalers.apply_to(set);  // includes the checkpoint's log-target transform
  if (args.has_flag("--log-target")) set.log_target = true;  // explicit override

  std::vector<model::TrainingSample> samples;
  samples.reserve(args.positional.size());
  for (const std::string& path : args.positional)
    samples.push_back(io::read_sample_file(path));

  std::vector<model::EncodedGraph> graphs;
  std::vector<std::array<float, 2>> aux;
  graphs.reserve(samples.size());
  aux.reserve(samples.size());
  for (model::TrainingSample& s : samples) {
    graphs.push_back(std::move(s.graph));
    aux.push_back(s.aux);
  }

  std::vector<double> scaled(samples.size());
  model::InferenceEngine engine(model);
  engine.predict_batch(graphs, aux, scaled);

  std::FILE* out = open_out(args);
  for (std::size_t i = 0; i < samples.size(); ++i)
    std::fprintf(out, "%s\t%.17g\t%.17g\n", args.positional[i].c_str(),
                 scaled[i], set.from_target(scaled[i]));
  if (out != stdout) std::fclose(out);
  return 0;
}

// --- client ---------------------------------------------------------------

/// Reference client for a running paragraph-serve daemon: sends each
/// .psample over the serve protocol and prints the same TSV as `predict`
/// (path, scaled prediction, microseconds) — the bytes on the wire are the
/// bytes on disk, and the daemon's fused-batch replies are bitwise-equal to
/// the local predict path (tests/serve_test.cpp pins this).
int cmd_client(const Args& args) {
  const auto port_text = args.option("--port");
  if (!port_text) return usage();
  const auto port = exact_int_in_range("--port", *port_text, 1, 65535);
  if (!port) return 1;
  const auto timeout_ms =
      static_cast<int>(args.int_option("--timeout-ms", 30'000, 0, 86'400'000));

  serve::Client client(static_cast<std::uint16_t>(*port), timeout_ms);
  if (args.has_flag("--ping")) {
    const auto pong = client.ping();
    if (!pong || pong->kind != serve::FrameKind::kPongReply)
      throw std::runtime_error("server did not answer the ping");
    std::printf("pong\n");
    if (args.positional.empty()) return 0;
  }
  if (args.positional.empty()) return usage();

  std::FILE* out = open_out(args);
  int failures = 0;
  for (const std::string& path : args.positional) {
    const std::string bytes = read_file(path);
    const auto response = client.predict_until_served(bytes);
    if (!response)
      throw std::runtime_error("server closed the connection");
    if (response->kind == serve::FrameKind::kPredictReply) {
      std::fprintf(out, "%s\t%.17g\t%.17g\n", path.c_str(),
                   response->prediction.scaled, response->prediction.runtime_us);
    } else {
      std::fprintf(stderr, "%s: server error (%s): %s\n", path.c_str(),
                   std::string(serve::error_code_name(response->error.code))
                       .c_str(),
                   response->error.message.c_str());
      ++failures;
    }
  }
  if (out != stdout) std::fclose(out);
  return failures == 0 ? 0 : 1;
}

// --- dump -----------------------------------------------------------------

void dump_graph_summary(const graph::ProgramGraph& graph) {
  std::printf("nodes: %zu\nedges: %zu\nmax child weight: %g\n",
              graph.num_nodes(), graph.num_edges(),
              static_cast<double>(graph.max_child_weight()));
  const auto histogram = graph.edge_type_histogram();
  for (std::size_t t = 0; t < graph::kNumEdgeTypes; ++t)
    std::printf("  %-10s %zu\n",
                std::string(graph::edge_type_name(
                                static_cast<graph::EdgeType>(t)))
                    .c_str(),
                histogram[t]);
}

void dump_sample_summary(const model::TrainingSample& sample,
                         const io::FeatureSectionInfo& features) {
  std::printf("app: %s (id %d)\nvariant: %s\n", sample.app_name.c_str(),
              sample.app_id, sample.variant.c_str());
  std::printf("features: %zu nodes (kind u8 + literal f32)\n",
              sample.graph.num_nodes());
  std::printf("feature section: %llu bytes%s\n",
              static_cast<unsigned long long>(features.bytes),
              features.from_dense
                  ? " (converted from the legacy dense layout)"
                  : "");
  std::printf("aux (scaled): %.9g %.9g\n",
              static_cast<double>(sample.aux[0]),
              static_cast<double>(sample.aux[1]));
  std::printf("target (scaled): %.17g\nruntime: %.17g us\n",
              sample.target_scaled, sample.runtime_us);
  for (std::size_t t = 0; t < sample.graph.relations.relations.size(); ++t)
    std::printf("  %-10s %zu edges\n",
                std::string(graph::edge_type_name(
                                static_cast<graph::EdgeType>(t)))
                    .c_str(),
                sample.graph.relations.relations[t].num_edges());
}

int cmd_dump(const Args& args) {
  if (args.positional.size() != 1) return usage();
  const std::string& path = args.positional[0];
  const io::FileInfo info = io::probe_file(path);
  std::printf("file: %s\nkind: %s (format v%u, schema %016llx)\n",
              path.c_str(), std::string(io::payload_kind_name(info.kind)).c_str(),
              info.version,
              static_cast<unsigned long long>(info.schema_hash));
  std::printf("simd: %s (max %s)\n",
              tensor::simd::level_name(tensor::simd::active_level()),
              tensor::simd::level_name(tensor::simd::max_supported_level()));
  switch (info.kind) {
    case io::PayloadKind::kGraph:
      dump_graph_summary(io::read_graph_file(path));
      break;
    case io::PayloadKind::kSample: {
      io::FeatureSectionInfo features;
      const model::TrainingSample sample = io::read_sample_file(path, &features);
      dump_sample_summary(sample, features);
      break;
    }
    case io::PayloadKind::kDataset: {
      // The index (v2) or the offset scan (v1) yields every split tag
      // without decoding a record.
      const io::DatasetView view(path);
      const io::DatasetMeta& meta = view.meta();
      std::printf("platform: %s\nrepresentation: %s\nseed: %llu\n",
                  meta.platform.c_str(), meta.representation.c_str(),
                  static_cast<unsigned long long>(meta.seed));
      std::printf("log target: %s\nchild weight scale: %.17g\n",
                  meta.log_target ? "yes" : "no", meta.child_weight_scale);
      std::printf("target bounds: [%.17g, %.17g]\n", meta.target_min,
                  meta.target_max);
      std::size_t train = 0;
      std::size_t validation = 0;
      for (std::size_t i = 0; i < view.size(); ++i)
        (view.split(i) == io::Split::kTrain ? train : validation) += 1;
      std::printf("records: %zu train + %zu validation%s\n", train,
                  validation,
                  view.has_checksums() ? " (indexed, checksummed)" : "");
      break;
    }
    default:
      std::printf("(no payload decoder for this kind)\n");
  }
  return 0;
}

// --- corpus ---------------------------------------------------------------

/// One pinned instance of the golden regression corpus. Runtimes are fixed
/// synthetic values (NOT simulator outputs) so the golden files pin the
/// frontend/graph/encoder only and do not drift when the cost model is
/// retuned.
struct GoldenEntry {
  const char* name;
  const char* kernel;
  dataset::Variant variant;
  std::int64_t teams;
  std::int64_t threads;
  double runtime_us;
};

constexpr GoldenEntry kGoldenEntries[] = {
    {"matvec_cpu", "matvec", dataset::Variant::kCpu, 1, 8, 1500.0},
    {"matmul_gpu_collapse_mem", "matmul", dataset::Variant::kGpuCollapseMem,
     128, 64, 850.0},
    {"corr_gpu_mem", "corr", dataset::Variant::kGpuMem, 256, 128, 12000.0},
    {"gauss_seidel_cpu_collapse", "gauss_seidel",
     dataset::Variant::kCpuCollapse, 1, 16, 98000.0},
};

const dataset::KernelSpec& spec_by_name(const std::string& kernel) {
  for (const auto& spec : dataset::benchmark_suite())
    if (spec.kernel == kernel) return spec;
  throw std::runtime_error("unknown kernel '" + kernel + "'");
}

void write_text_file(const std::filesystem::path& path,
                     const std::string& content) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path.string());
  os << content;
}

int cmd_corpus_golden(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);

  // Pass 1: instantiate + build every graph (child-weight scale is the
  // corpus-global max, like build_sample_set's train-split fit).
  struct Built {
    const GoldenEntry* entry;
    const dataset::KernelSpec* spec;
    std::string source;
    graph::ProgramGraph graph;
  };
  std::vector<Built> built;
  double child_scale = 1.0;
  for (const GoldenEntry& entry : kGoldenEntries) {
    const dataset::KernelSpec& spec = spec_by_name(entry.kernel);
    const std::string source =
        dataset::instantiate_source(spec, entry.variant,
                                    spec.default_sizes.front(), entry.teams,
                                    entry.threads);
    const frontend::ParseResult parsed = frontend::parse_source(source);
    check(parsed.ok(), "golden kernel failed to parse");

    graph::BuildOptions options;
    options.representation = graph::Representation::kParaGraph;
    const bool gpu = dataset::variant_is_gpu(entry.variant);
    options.parallel_workers =
        std::max<std::int64_t>(1, gpu ? entry.teams * entry.threads
                                      : entry.threads);
    built.push_back({&entry, &spec, source,
                     graph::build_graph(parsed.root(), options)});
    child_scale = std::max(
        child_scale, static_cast<double>(built.back().graph.max_child_weight()));
  }

  io::DatasetMeta meta;
  meta.platform = "golden";
  meta.representation = "ParaGraph";
  meta.seed = 0;
  meta.child_weight_scale = child_scale;
  meta.target_min = 0.0;
  meta.target_max = 1e6;
  meta.teams_min = 1.0;
  meta.teams_max = 1024.0;
  meta.threads_min = 1.0;
  meta.threads_max = 1024.0;

  std::ofstream ds_os(dir / "corpus.pgds", std::ios::binary);
  if (!ds_os) throw std::runtime_error("cannot open corpus.pgds");
  io::DatasetWriter ds_writer(ds_os, meta);

  std::string manifest;
  manifest += "# golden regression corpus — regenerate with:\n";
  manifest += "#   paragraph-cli corpus --golden --out tests/golden\n";
  manifest += "# corpus.pgds is dataset format v2 (the record stream with its\n";
  manifest += "# offset/checksum index appended); format-version below is the\n";
  manifest += "# version of the .pgraph and .psample files.\n";
  manifest += "format-version 1\n";
  {
    char line[64];
    std::snprintf(line, sizeof line, "schema-hash %016llx\n",
                  static_cast<unsigned long long>(io::feature_schema_hash()));
    manifest += line;
  }
  char line[256];
  std::snprintf(line, sizeof line, "child-weight-scale %.17g\n", child_scale);
  manifest += line;

  for (const Built& b : built) {
    const GoldenEntry& entry = *b.entry;
    write_text_file(dir / (std::string(entry.name) + ".c"), b.source);
    io::write_graph_file((dir / (std::string(entry.name) + ".pgraph")).string(),
                         b.graph);
    std::ostringstream text;
    b.graph.serialize(text);
    write_text_file(dir / (std::string(entry.name) + ".pgraph.txt"), text.str());

    const model::TrainingSample sample = encode_sample(
        b.graph, meta, entry.teams, entry.threads, entry.runtime_us,
        dataset::app_id(b.spec->app), b.spec->app,
        std::string(dataset::variant_name(entry.variant)));
    io::write_sample_file((dir / (std::string(entry.name) + ".psample")).string(),
                          sample);
    ds_writer.append(sample, io::Split::kTrain);

    std::snprintf(line, sizeof line, "%s kernel=%s variant=%s teams=%lld "
                  "threads=%lld runtime_us=%.17g nodes=%zu edges=%zu\n",
                  entry.name, entry.kernel,
                  std::string(dataset::variant_name(entry.variant)).c_str(),
                  static_cast<long long>(entry.teams),
                  static_cast<long long>(entry.threads), entry.runtime_us,
                  b.graph.num_nodes(), b.graph.num_edges());
    manifest += line;
  }
  ds_writer.finish();
  ds_os.close();
  write_text_file(dir / "MANIFEST.txt", manifest);
  std::printf("golden corpus: %zu entries -> %s\n", built.size(),
              dir.string().c_str());
  return 0;
}

int cmd_reindex(const Args& args) {
  if (args.positional.size() != 2) return usage();
  io::reindex_dataset(args.positional[0], args.positional[1]);
  const io::DatasetView view(args.positional[1]);
  std::printf("reindexed %s -> %s (%zu records, format v%u)\n",
              args.positional[0].c_str(), args.positional[1].c_str(),
              view.size(), view.format_version());
  return 0;
}

int cmd_corpus(const Args& args) {
  const std::filesystem::path dir = args.required("--out");
  apply_thread_override(args);
  apply_simd_override(args);
  std::fprintf(stderr, "simd: %s\n",
               tensor::simd::level_name(tensor::simd::active_level()));
  if (args.has_flag("--golden")) return cmd_corpus_golden(dir);

  const std::string platform_name = args.option("--platform").value_or("v100");
  sim::Platform platform;
  if (platform_name == "power9") platform = sim::summit_power9();
  else if (platform_name == "v100") platform = sim::summit_v100();
  else if (platform_name == "epyc") platform = sim::corona_epyc7401();
  else if (platform_name == "mi50") platform = sim::corona_mi50();
  else throw std::runtime_error("unknown platform '" + platform_name +
                                "' (power9|v100|epyc|mi50)");

  const std::string scale = args.option("--scale").value_or("smoke");
  dataset::GenerationConfig gen;
  gen.scale = scale == "full"      ? RunScale::kFull
              : scale == "default" ? RunScale::kDefault
                                   : RunScale::kSmoke;
  gen.seed =
      static_cast<std::uint64_t>(args.int_option("--seed", 2024, 0, INT64_MAX));

  const std::string repr_name =
      args.option("--representation").value_or("paragraph");
  dataset::SampleBuildConfig build;
  build.representation = representation_from(repr_name);
  build.log_target = args.has_flag("--log-target");

  std::printf("generating %s dataset on %s ...\n", scale.c_str(),
              platform.name.c_str());
  const auto points = dataset::generate_dataset(platform, gen);
  const model::SampleSet set = dataset::build_sample_set(points, build);

  std::filesystem::create_directories(dir);
  const std::string stem = platform_name + "-" + scale + "-" + repr_name +
                           "-seed" + std::to_string(gen.seed);
  const std::filesystem::path out = dir / (stem + ".pgds");
  io::write_sample_set_file(out.string(), set, platform.name,
                            std::string(graph::representation_name(
                                build.representation)),
                            gen.seed);
  std::printf("%zu train + %zu validation samples -> %s\n", set.train.size(),
              set.validation.size(), out.string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string subcommand = argv[1];
  try {
    const Args args = parse_args(argc, argv, 2);
    if (subcommand == "compile") return cmd_compile(args);
    if (subcommand == "encode") return cmd_encode(args);
    if (subcommand == "predict") return cmd_predict(args);
    if (subcommand == "dump") return cmd_dump(args);
    if (subcommand == "client") return cmd_client(args);
    if (subcommand == "corpus") return cmd_corpus(args);
    if (subcommand == "reindex") return cmd_reindex(args);
    std::fprintf(stderr, "unknown subcommand '%s'\n", subcommand.c_str());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
