// pgbench: the measuring binary behind perfbench/run.py.
//
// Every mode prints one flat JSON object as its last stdout line; run.py
// turns those raw measurements into the benchmark's metrics. Layer timings
// come from spans pgbench records around its own calls into each
// module's public functions — nothing inside the library is instrumented.
//
//   pgbench train   --seed S --seconds T --trace 0|1 --threads N --setups K
//   pgbench advise  --seed S --seconds T --trace 0|1 --threads N --setups K
//                   [--inject none|parse2|predict2]
//   pgbench prepare --seed S --dir D     (checkpoint + .psample payload pool)
//   pgbench gen     --port P --dir D --seconds T --trace 0|1 --seed S
//                   --connections C --zipf Z --daemon-pid PID
//   pgbench replay  --dir D --batch B    (in-process engine at batch B)
//
// Traced runs (--trace 1) also take --trace-out FILE for their span CSV.
//
// `--inject` is the layer-sensitivity self-check: it repeats one layer's
// public call from the benchmark side so the benchmark's tests can show the
// mapped metric moves (see perfbench/README.md).
#include <dirent.h>
#include <poll.h>
#include <time.h>

#include <omp.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dataset/generator.hpp"
#include "dataset/sample_builder.hpp"
#include "dataset/variants.hpp"
#include "frontend/parser.hpp"
#include "graph/builder.hpp"
#include "io/pgraph_io.hpp"
#include "model/checkpoint.hpp"
#include "model/encoding.hpp"
#include "model/engine.hpp"
#include "model/trainer.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"
#include "sim/kernel_profile.hpp"
#include "sim/platform.hpp"
#include "sim/runtime_simulator.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/simd.hpp"

namespace {

using namespace pg;

// --- clocks and small statistics -----------------------------------------

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU of every thread of this process.
std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// On-CPU time of every thread of another process, summed from
/// /proc/PID/task/*/schedstat (first field, nanoseconds).
std::int64_t other_process_cpu_ns(long pid) {
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = opendir(task_dir.c_str());
  if (dir == nullptr) return -1;
  std::int64_t total = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream is(task_dir + "/" + entry->d_name + "/schedstat");
    long long on_cpu = 0;
    if (is >> on_cpu) total += on_cpu;
  }
  closedir(dir);
  return total;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linearly interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double at = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (at - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// Quiet-quarter estimates over the slices of a measured window: the first
// quartile of per-slice costs (time or CPU per operation, latency) and the
// third quartile of per-slice rates. Interference from other tenants of a
// shared host only ever adds time, so the quieter quarter of the slices is
// the figure that repeats from run to run; a slower program slows every
// slice, quiet ones included.
double quiet_cost(const std::vector<double>& v) { return quantile(v, 0.25); }
double quiet_rate(const std::vector<double>& v) { return quantile(v, 0.75); }

/// Nearest-rank percentile of an already sorted vector.
double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

// --- output ----------------------------------------------------------------

/// Flat JSON object, insertion-ordered, doubles printed round-trippable.
class Json {
 public:
  void add(const std::string& key, double value) {
    char buffer[64];
    if (std::isfinite(value))
      std::snprintf(buffer, sizeof buffer, "%.17g", value);
    else
      std::snprintf(buffer, sizeof buffer, "null");
    entries_.emplace_back(key, buffer);
  }
  void add(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, "\"" + value + "\"");
  }
  void print() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + entries_[i].first + "\": " + entries_[i].second;
    }
    out += "}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

// --- arguments ---------------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int a = 2; a + 1 < argc; a += 2) values_[argv[a]] = argv[a + 1];
  }
  [[nodiscard]] std::string str(const std::string& name,
                                const std::string& fallback = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] std::int64_t num(const std::string& name,
                                 std::int64_t fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : std::stoll(it->second);
  }
  [[nodiscard]] double real(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

// --- spans -----------------------------------------------------------------

/// In-memory span recorder. Disabled tracers cost one branch per call.
/// Spans are kept until the run ends; summary() derives per-name self time
/// (duration minus the time of direct children) and write() dumps them.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  std::uint32_t begin(const char* name, std::uint32_t parent, std::uint64_t id) {
    if (!enabled_) return kNoParent;
    spans_.push_back({name, parent, id, wall_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void end(std::uint32_t index) {
    if (index != kNoParent) spans_[index].end_ns = wall_ns();
  }

  struct Layer {
    double total_ns = 0.0;
    double self_ns = 0.0;
    std::uint64_t calls = 0;
  };
  [[nodiscard]] std::map<std::string, Layer> summary() const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent != kNoParent)
        child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    std::map<std::string, Layer> layers;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double dur = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
      Layer& layer = layers[spans_[i].name];
      layer.total_ns += dur;
      layer.self_ns += dur - child_ns[i];
      ++layer.calls;
    }
    return layers;
  }

  /// Share of [from, to) covered by the union of all spans.
  [[nodiscard]] double covered_share(std::int64_t from, std::int64_t to) const {
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    iv.reserve(spans_.size());
    for (const Span& s : spans_)
      iv.emplace_back(std::max(s.start_ns, from), std::min(s.end_ns, to));
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, reach = from;
    for (const auto& [lo, hi] : iv) {
      const std::int64_t start = std::max(lo, reach);
      if (hi > start) {
        covered += hi - start;
        reach = hi;
      }
    }
    return to > from ? static_cast<double>(covered) / static_cast<double>(to - from)
                     : 0.0;
  }

  /// Writes at most `limit` spans as CSV: name,start_ns,end_ns,parent,id
  /// (parent is the span's row index, -1 for a root). Times are relative to
  /// the first span.
  void write(const std::string& path, std::size_t limit) const {
    if (path.empty() || spans_.empty()) return;
    std::ofstream os(path);
    os << "name,start_ns,end_ns,parent,id\n";
    const std::int64_t t0 = spans_.front().start_ns;
    const std::size_t n = std::min(limit, spans_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      os << s.name << ',' << s.start_ns - t0 << ',' << s.end_ns - t0 << ','
         << (s.parent == kNoParent || s.parent >= n ? -1
                                                    : static_cast<long long>(s.parent))
         << ',' << s.id << '\n';
    }
  }

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint32_t parent, std::uint64_t id)
      : tracer_(tracer), index_(tracer.begin(name, parent, id)) {}
  ~Scope() { tracer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint32_t index() const { return index_; }

 private:
  Tracer& tracer_;
  std::uint32_t index_;
};

double layer_us(const std::map<std::string, Tracer::Layer>& layers,
                const std::string& name) {
  const auto it = layers.find(name);
  if (it == layers.end() || it->second.calls == 0) return 0.0;
  return it->second.self_ns / 1e3 / static_cast<double>(it->second.calls);
}

void add_machine(Json& out) {
  out.add("simd", tensor::simd::level_name(tensor::simd::active_level()));
  out.add("compiler", PGBENCH_COMPILER);
  out.add("build_type", PGBENCH_BUILD_TYPE);
}

void add_engine_stats(Json& out, const model::ScheduleStats& s) {
  out.add("engine.graphs_per_call",
          s.batches > 0 ? static_cast<double>(s.graphs) / s.batches : 0.0);
  out.add("engine.rows_per_chunk",
          s.chunks > 0 ? static_cast<double>(s.rows) / s.chunks : 0.0);
  out.add("engine.intra_chunks", static_cast<double>(s.intra_chunks));
}

model::ScheduleStats operator+(model::ScheduleStats a, const model::ScheduleStats& b) {
  a.batches += b.batches;
  a.graphs += b.graphs;
  a.chunks += b.chunks;
  a.rows += b.rows;
  a.intra_chunks += b.intra_chunks;
  return a;
}

model::ScheduleStats operator-(model::ScheduleStats a, const model::ScheduleStats& b) {
  a.batches -= b.batches;
  a.graphs -= b.graphs;
  a.chunks -= b.chunks;
  a.rows -= b.rows;
  a.intra_chunks -= b.intra_chunks;
  return a;
}

// --- shared set-up -----------------------------------------------------------

struct Corpus {
  model::SampleSet set;
  std::vector<double> setup_s, generate_s, build_s;
};

/// Generates and encodes one platform's sweep `repeats` times (the set-up
/// work, timed each time) and keeps the last result.
Corpus build_corpus(const sim::Platform& platform, RunScale scale,
                    std::uint64_t seed, bool log_target, int repeats) {
  Corpus corpus;
  for (int r = 0; r < repeats; ++r) {
    const std::int64_t t0 = wall_ns();
    dataset::GenerationConfig gen;
    gen.scale = scale;
    gen.seed = seed;
    const auto points = dataset::generate_dataset(platform, gen);
    const std::int64_t t1 = wall_ns();
    dataset::SampleBuildConfig build;
    build.log_target = log_target;
    corpus.set = dataset::build_sample_set(points, build);
    const std::int64_t t2 = wall_ns();
    corpus.generate_s.push_back((t1 - t0) / 1e9);
    corpus.build_s.push_back((t2 - t1) / 1e9);
    corpus.setup_s.push_back((t2 - t0) / 1e9);
  }
  return corpus;
}

/// Validation RMSE of always predicting the training mean, normalised the
/// way the trainer normalises (by the training runtimes' range).
double mean_baseline_norm_rmse(const model::SampleSet& set) {
  double sum = 0.0, lo = INFINITY, hi = -INFINITY;
  for (const auto& s : set.train) {
    sum += s.runtime_us;
    lo = std::min(lo, s.runtime_us);
    hi = std::max(hi, s.runtime_us);
  }
  const double mean = sum / static_cast<double>(set.train.size());
  double se = 0.0;
  for (const auto& s : set.validation)
    se += (s.runtime_us - mean) * (s.runtime_us - mean);
  return std::sqrt(se / static_cast<double>(set.validation.size())) / (hi - lo);
}

// --- train -------------------------------------------------------------------

/// Epochs per training run: the fewest after which the model beats
/// predicting the training mean on every seed tried.
constexpr int kTrainEpochs = 5;

struct TrainPhase {
  std::vector<double> epoch_s, epoch_cpu_s;
  double val_norm_rmse = -1.0;
  bool deterministic = true;
  std::uint64_t reps = 0;
  std::int64_t start_ns = 0, end_ns = 0;
  std::shared_ptr<model::ParaGraphModel> last_model;
};

/// Trains fresh models for kTrainEpochs epochs each, back to back, until
/// `seconds` have passed. Every run must end at the same validation error:
/// training is bitwise-reproducible.
TrainPhase train_phase(const model::SampleSet& set, double seconds,
                       Tracer& tracer) {
  TrainPhase phase;
  phase.start_ns = wall_ns();
  const std::int64_t deadline =
      phase.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  while (wall_ns() < deadline) {
    auto model = std::make_shared<model::ParaGraphModel>(model::ModelConfig{});
    const Scope run(tracer, "trainer.run", Tracer::kNoParent, phase.reps);
    std::uint32_t epoch_span =
        tracer.begin("trainer.epoch", run.index(), phase.reps);
    std::int64_t last_wall = wall_ns(), last_cpu = process_cpu_ns();
    model::TrainConfig config;
    config.epochs = kTrainEpochs;
    config.on_epoch = [&](int epoch, double, double) {
      const std::int64_t w = wall_ns(), c = process_cpu_ns();
      tracer.end(epoch_span);
      phase.epoch_s.push_back((w - last_wall) / 1e9);
      phase.epoch_cpu_s.push_back((c - last_cpu) / 1e9);
      if (epoch < kTrainEpochs)
        epoch_span = tracer.begin("trainer.epoch", run.index(), phase.reps);
      last_wall = wall_ns();
      last_cpu = process_cpu_ns();
    };
    const model::TrainResult result = model::train_model(*model, set, config);
    if (phase.val_norm_rmse < 0.0)
      phase.val_norm_rmse = result.final_norm_rmse;
    else if (std::bit_cast<std::uint64_t>(phase.val_norm_rmse) !=
             std::bit_cast<std::uint64_t>(result.final_norm_rmse))
      phase.deterministic = false;
    ++phase.reps;
    phase.last_model = model;
  }
  phase.end_ns = wall_ns();
  return phase;
}

int run_train(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.num("--seed", 1));
  const double seconds = args.real("--seconds", 10.0);
  const bool trace = args.num("--trace", 0) != 0;
  const int threads = static_cast<int>(args.num("--threads", 1));
  const int setups = static_cast<int>(args.num("--setups", 3));

  omp_set_num_threads(threads);
  const Corpus corpus =
      build_corpus(sim::summit_v100(), RunScale::kDefault, seed, false, setups);
  const model::SampleSet& set = corpus.set;
  const double baseline = mean_baseline_norm_rmse(set);
  const double n_train = static_cast<double>(set.train.size());
  const double steps = std::ceil(n_train / model::TrainConfig{}.batch_size);

  Json out;
  add_machine(out);
  out.add("setup_s", median(corpus.setup_s));
  out.add("dataset.generate_s", median(corpus.generate_s));
  out.add("dataset.sample_build_s", median(corpus.build_s));
  out.add("mean_baseline_norm_rmse", baseline);

  auto emit = [&](const std::string& prefix, const TrainPhase& p) {
    std::vector<double> sps, cpu_us, step_us;
    for (std::size_t i = 0; i < p.epoch_s.size(); ++i) {
      sps.push_back(n_train / p.epoch_s[i]);
      cpu_us.push_back(p.epoch_cpu_s[i] * 1e6 / n_train);
      step_us.push_back(p.epoch_s[i] * 1e6 / steps);
    }
    out.add(prefix + "throughput_per_s", quiet_rate(sps));
    out.add(prefix + "cpu_us_per_op", quiet_cost(cpu_us));
    out.add(prefix + "latency_p50_us", quiet_cost(step_us));
    out.add(prefix + "val_norm_rmse", p.val_norm_rmse);
    out.add(prefix + "deterministic", p.deterministic ? 1.0 : 0.0);
    out.add(prefix + "samples", n_train * static_cast<double>(p.epoch_s.size()));
  };

  Tracer off(false);
  const TrainPhase plain = train_phase(set, trace ? seconds / 2 : seconds, off);
  emit("", plain);
  if (trace) {
    Tracer tracer(true);
    const TrainPhase traced = train_phase(set, seconds / 2, tracer);
    emit("traced.", traced);
    // Forward share: one train-set predict_batch against one epoch.
    std::vector<model::EncodedGraph> graphs;
    std::vector<std::array<float, 2>> aux;
    for (const auto& s : set.train) {
      graphs.push_back(s.graph);
      aux.push_back(s.aux);
    }
    std::vector<double> pred(graphs.size());
    model::InferenceEngine engine(*traced.last_model);
    engine.predict_batch(graphs, aux, pred);  // warm the workspaces
    const auto warm = engine.schedule_stats();
    std::int64_t fwd_ns = 0;
    {
      const Scope s(tracer, "engine.predict_batch", Tracer::kNoParent, 0);
      const std::int64_t t0 = wall_ns();
      engine.predict_batch(graphs, aux, pred);
      fwd_ns = wall_ns() - t0;
    }
    add_engine_stats(out, engine.schedule_stats() - warm);
    const double epoch_med = median(traced.epoch_s);
    out.add("engine.us_per_graph", fwd_ns / 1e3 / n_train);
    out.add("trainer.forward_share", fwd_ns / 1e9 / epoch_med);
    out.add("trainer.epoch_s", epoch_med);
    std::vector<double> firsts;
    for (std::size_t i = 0; i < traced.epoch_s.size(); i += kTrainEpochs)
      firsts.push_back(traced.epoch_s[i]);
    out.add("trainer.first_epoch_s", median(firsts));
    out.add("trace.attributed_share",
            tracer.covered_share(traced.start_ns, traced.end_ns));
    tracer.write(args.str("--trace-out"), 20000);
  }
  out.add("peak_rss_mb", peak_rss_mb());
  out.print();
  return 0;
}

// --- advise ------------------------------------------------------------------

/// Training budget of each device model in the advise set-up.
constexpr int kAdviseTrainEpochs = 6;

struct Device {
  sim::Platform platform;
  Corpus corpus;
  std::unique_ptr<model::ParaGraphModel> model;
  std::unique_ptr<model::InferenceEngine> engine;
};

struct Candidate {
  Device* device = nullptr;
  dataset::Variant variant{};
  std::int64_t teams = 1;
  std::int64_t threads = 1;
};

/// A (kernel, problem size) query outside the training sweep. Kernels come
/// in seeded shuffled rounds that visit every kernel once, so the kernel mix
/// is the same for every seed; each size is drawn log-uniformly over the
/// kernel's full size range and nudged off any point the default sweep
/// trains on.
struct Query {
  const dataset::KernelSpec* spec = nullptr;
  dataset::SizePoint size;
};

class QueryStream {
 public:
  explicit QueryStream(std::uint64_t seed) : rng_(seed) {}
  Query next() {
    const auto& suite = dataset::benchmark_suite();
    if (at_ == order_.size()) {
      order_.resize(suite.size());
      for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      for (std::size_t i = order_.size() - 1; i > 0; --i)
        std::swap(order_[i], order_[static_cast<std::size_t>(rng_.uniform_int(
                                 0, static_cast<std::int64_t>(i)))]);
      at_ = 0;
    }
    return draw(suite[order_[at_++]]);
  }
  /// Ends the current round, so the next query opens a fresh one.
  void start_round() { at_ = order_.size(); }
  /// Queries per round: every suite kernel once.
  static std::size_t round_size() { return dataset::benchmark_suite().size(); }

 private:
  Query draw(const dataset::KernelSpec& spec);
  Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t at_ = 0;
};

Query QueryStream::draw(const dataset::KernelSpec& spec) {
  Rng& rng = rng_;
  Query q;
  q.spec = &spec;
  std::vector<dataset::SizePoint> all = q.spec->default_sizes;
  all.insert(all.end(), q.spec->extra_full_sizes.begin(),
             q.spec->extra_full_sizes.end());
  for (const auto& [key, unused] : q.spec->default_sizes.front()) {
    double lo = INFINITY, hi = 0.0;
    for (const auto& p : all) {
      lo = std::min(lo, static_cast<double>(p.at(key)));
      hi = std::max(hi, static_cast<double>(p.at(key)));
    }
    q.size[key] = static_cast<std::int64_t>(
        std::llround(std::exp(rng.uniform(std::log(lo), std::log(hi)))));
  }
  while (std::find(q.spec->default_sizes.begin(), q.spec->default_sizes.end(),
                   q.size) != q.spec->default_sizes.end())
    ++q.size.begin()->second;
  return q;
}

int run_advise(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.num("--seed", 1));
  const double seconds = args.real("--seconds", 10.0);
  const bool trace = args.num("--trace", 0) != 0;
  const int threads = static_cast<int>(args.num("--threads", 1));
  const int setups = static_cast<int>(args.num("--setups", 3));
  const std::string inject = args.str("--inject", "none");
  const int parse_reps = inject == "parse2" ? 2 : 1;
  const int predict_reps = inject == "predict2" ? 2 : 1;

  // Set-up: both device models, trained on the smoke-scale sweep with the
  // log-runtime target (the ranking-friendly target), `setups` times.
  omp_set_num_threads(threads);
  std::array<Device, 2> devices;
  devices[0].platform = sim::summit_power9();
  devices[1].platform = sim::summit_v100();
  std::vector<double> setup_s, generate_s, build_s;
  double val_norm = 0.0;
  for (int r = 0; r < setups; ++r) {
    const std::int64_t t0 = wall_ns();
    double gen = 0.0, build = 0.0;
    val_norm = 0.0;
    for (Device& d : devices) {
      d.corpus = build_corpus(d.platform, RunScale::kSmoke, seed, true, 1);
      gen += d.corpus.generate_s.front();
      build += d.corpus.build_s.front();
      d.model = std::make_unique<model::ParaGraphModel>(model::ModelConfig{});
      model::TrainConfig config;
      config.epochs = kAdviseTrainEpochs;
      val_norm += model::train_model(*d.model, d.corpus.set, config).final_norm_rmse /
                  static_cast<double>(devices.size());
    }
    setup_s.push_back((wall_ns() - t0) / 1e9);
    generate_s.push_back(gen);
    build_s.push_back(build);
  }
  for (Device& d : devices)
    d.engine = std::make_unique<model::InferenceEngine>(*d.model);

  const std::vector<std::int64_t> cpu_threads = {8, devices[0].platform.cores};
  const std::vector<std::pair<std::int64_t, std::int64_t>> gpu_configs = {
      {64, 128}, {256, 256}, {1024, 256}};
  sim::SimOptions noise_free;
  noise_free.noise_sigma = 0.0;

  struct Phase {
    std::vector<double> latency_us, cpu_us;
    double slowdown = 0.0, random_slowdown = 0.0;
    std::uint64_t queries = 0, failed = 0, candidates = 0;
    std::uint64_t parse_calls = 0;
    double nodes = 0.0, edges = 0.0;
    std::int64_t busy_ns = 0, start_ns = 0, end_ns = 0;
  };

  QueryStream queries(seed * 0x9e3779b97f4a7c15ULL + 1);
  auto run_phase = [&](double secs, Tracer& tracer) {
    Phase p;
    queries.start_round();  // slices align with rounds; see emit
    p.start_ns = wall_ns();
    const std::int64_t deadline = p.start_ns + static_cast<std::int64_t>(secs * 1e9);
    std::vector<Candidate> cands;
    std::vector<frontend::ParseResult> parsed;
    std::array<std::vector<model::EncodedGraph>, 2> graphs;
    std::array<std::vector<std::array<float, 2>>, 2> aux;
    std::array<std::vector<double>, 2> scaled;
    std::vector<std::pair<int, std::size_t>> slot;  // (device, index)
    while (wall_ns() < deadline) {
      const Query q = queries.next();
      cands.clear();
      for (const auto v : dataset::applicable_variants(*q.spec, false))
        for (const std::int64_t t : cpu_threads) cands.push_back({&devices[0], v, 1, t});
      for (const auto v : dataset::applicable_variants(*q.spec, true))
        for (const auto& [teams, t] : gpu_configs)
          cands.push_back({&devices[1], v, teams, t});
      parsed.clear();
      slot.clear();
      for (int d = 0; d < 2; ++d) {
        graphs[d].clear();
        aux[d].clear();
      }

      // --- timed: the advisor's own work for one query ---
      const std::int64_t w0 = wall_ns(), c0 = process_cpu_ns();
      std::size_t best = 0;
      std::vector<double> predicted_us(cands.size());
      {
        const Scope qs(tracer, "advise.query", Tracer::kNoParent, p.queries);
        for (const Candidate& c : cands) {
          const int d = c.device == &devices[0] ? 0 : 1;
          std::string source;
          {
            const Scope s(tracer, "dataset.instantiate", qs.index(), p.queries);
            source = dataset::instantiate_source(*q.spec, c.variant, q.size,
                                                 c.teams, c.threads);
          }
          {
            const Scope s(tracer, "frontend.parse", qs.index(), p.queries);
            for (int r = 0; r < parse_reps; ++r) {
              parsed.push_back(frontend::parse_source(source));
              ++p.parse_calls;
              if (r + 1 < parse_reps) parsed.pop_back();
            }
          }
          graph::ProgramGraph g;
          {
            const Scope s(tracer, "graph.build", qs.index(), p.queries);
            graph::BuildOptions options;
            options.parallel_workers = std::max<std::int64_t>(
                1, dataset::variant_is_gpu(c.variant) ? c.teams * c.threads
                                                      : c.threads);
            g = graph::build_graph(parsed.back().root(), options);
          }
          p.nodes += static_cast<double>(g.num_nodes());
          p.edges += static_cast<double>(g.num_edges());
          {
            const Scope s(tracer, "model.encode", qs.index(), p.queries);
            const model::SampleSet& set = c.device->corpus.set;
            graphs[d].push_back(model::encode_graph(g, set.child_weight_scale));
            aux[d].push_back(
                {static_cast<float>(set.teams_scaler.transform(
                     static_cast<double>(c.teams))),
                 static_cast<float>(set.threads_scaler.transform(
                     static_cast<double>(c.threads)))});
          }
          slot.emplace_back(d, graphs[d].size() - 1);
        }
        for (int d = 0; d < 2; ++d) {
          scaled[d].assign(graphs[d].size(), 0.0);
          if (graphs[d].empty()) continue;
          const Scope s(tracer, "engine.predict_batch", qs.index(), p.queries);
          for (int r = 0; r < predict_reps; ++r)
            devices[d].engine->predict_batch(graphs[d], aux[d], scaled[d]);
        }
        for (std::size_t i = 0; i < cands.size(); ++i) {
          const auto [d, k] = slot[i];
          predicted_us[i] = devices[d].corpus.set.from_target(scaled[d][k]);
          if (predicted_us[i] < predicted_us[best]) best = i;
        }
      }
      const std::int64_t w1 = wall_ns(), c1 = process_cpu_ns();
      p.latency_us.push_back((w1 - w0) / 1e3);
      p.cpu_us.push_back((c1 - c0) / 1e3);
      p.busy_ns += w1 - w0;

      // --- untimed: correctness gates and ground truth ---
      bool ok = true;
      std::vector<double> actual(cands.size());
      for (std::size_t i = 0; i < cands.size(); ++i) {
        const auto [d, k] = slot[i];
        const double one = devices[d].engine->predict_one(graphs[d][k], aux[d][k]);
        if (std::bit_cast<std::uint64_t>(one) !=
            std::bit_cast<std::uint64_t>(scaled[d][k]))
          ok = false;
        actual[i] = sim::simulate_runtime_us(
            sim::profile_kernel(parsed[i].root()), cands[i].device->platform,
            noise_free);
      }
      const double best_actual = *std::min_element(actual.begin(), actual.end());
      double mean_actual = 0.0;
      for (const double a : actual) mean_actual += a;
      mean_actual /= static_cast<double>(actual.size());
      p.slowdown += actual[best] / best_actual;
      p.random_slowdown += mean_actual / best_actual;
      p.candidates += cands.size();
      p.failed += ok ? 0 : 1;
      ++p.queries;
    }
    p.end_ns = wall_ns();
    return p;
  };

  Json out;
  add_machine(out);
  out.add("setup_s", median(setup_s));
  out.add("dataset.generate_s", median(generate_s));
  out.add("dataset.sample_build_s", median(build_s));
  out.add("val_norm_rmse", val_norm);

  // One slice per query round, so every slice holds the same kernel mix and
  // only host noise differs between slices; see quiet_cost/quiet_rate.
  auto emit = [&](const std::string& prefix, const Phase& p) {
    std::vector<double> tput, cpu, p50;
    const std::size_t slice = QueryStream::round_size();
    for (std::size_t i = 0; i + slice <= p.latency_us.size(); i += slice) {
      double wall = 0.0, c = 0.0;
      for (std::size_t j = i; j < i + slice; ++j) {
        wall += p.latency_us[j];
        c += p.cpu_us[j];
      }
      tput.push_back(slice * 1e6 / wall);
      cpu.push_back(c / slice);
      p50.push_back(median({p.latency_us.begin() + static_cast<std::ptrdiff_t>(i),
                            p.latency_us.begin() + static_cast<std::ptrdiff_t>(i + slice)}));
    }
    std::vector<double> sorted = p.latency_us;
    std::sort(sorted.begin(), sorted.end());
    const double p99 = percentile_sorted(sorted, 0.99);
    out.add(prefix + "throughput_per_s", quiet_rate(tput));
    out.add(prefix + "cpu_us_per_op", quiet_cost(cpu));
    out.add(prefix + "latency_p50_us", quiet_cost(p50));
    out.add(prefix + "latency_p99_us", p99);
    out.add(prefix + "latency_p99_beyond",
            static_cast<double>(sorted.end() -
                                std::upper_bound(sorted.begin(), sorted.end(), p99)));
    out.add(prefix + "queries", static_cast<double>(p.queries));
    out.add(prefix + "failed", static_cast<double>(p.failed));
    const double q = std::max<double>(1.0, static_cast<double>(p.queries));
    out.add(prefix + "advise_slowdown", p.slowdown / q);
    out.add(prefix + "random_slowdown", p.random_slowdown / q);
    out.add(prefix + "parse_calls", static_cast<double>(p.parse_calls));
    const double nc = std::max<double>(1.0, static_cast<double>(p.candidates));
    out.add(prefix + "nodes_per_graph", p.nodes / nc);
    out.add(prefix + "edges_per_graph", p.edges / nc);
  };

  Tracer off(false);
  const Phase plain = run_phase(trace ? seconds / 2 : seconds, off);
  emit("", plain);
  if (trace) {
    Tracer tracer(true);
    const auto before = devices[0].engine->schedule_stats() +
                        devices[1].engine->schedule_stats();
    const Phase traced = run_phase(seconds / 2, tracer);
    emit("traced.", traced);
    add_engine_stats(out, devices[0].engine->schedule_stats() +
                              devices[1].engine->schedule_stats() - before);
    const auto layers = tracer.summary();
    out.add("dataset.instantiate_us", layer_us(layers, "dataset.instantiate"));
    out.add("frontend.parse_us", layer_us(layers, "frontend.parse"));
    out.add("graph.build_us", layer_us(layers, "graph.build"));
    out.add("model.encode_us", layer_us(layers, "model.encode"));
    const auto& eng = layers.at("engine.predict_batch");
    out.add("engine.us_per_graph",
            eng.self_ns / 1e3 / static_cast<double>(traced.candidates) / predict_reps);
    // Share of the timed query windows covered by named layer spans.
    const auto& q = layers.at("advise.query");
    out.add("trace.attributed_share", (q.total_ns - q.self_ns) /
                                          static_cast<double>(traced.busy_ns));
    tracer.write(args.str("--trace-out"), 20000);
  }
  out.add("peak_rss_mb", peak_rss_mb());
  out.print();
  return 0;
}

// --- serve: payload pool, generator, replay ----------------------------------

std::vector<std::string> read_pool(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::vector<std::string> pool;
  std::uint64_t n = 0;
  is.read(reinterpret_cast<char*>(&n), sizeof n);
  for (std::uint64_t i = 0; i < n && is; ++i) {
    std::uint64_t len = 0;
    is.read(reinterpret_cast<char*>(&len), sizeof len);
    std::string bytes(len, '\0');
    is.read(bytes.data(), static_cast<std::streamsize>(len));
    pool.push_back(std::move(bytes));
  }
  check(is.good() && pool.size() == n, "pgbench: truncated payload pool");
  return pool;
}

model::TrainingSample decode_payload(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  return io::read_sample(is);
}

/// Writes the daemon's checkpoint (a fixed-init model: serving cost does
/// not depend on the weights' values) and the .psample payload pool built
/// from the seeded V100 sweep.
int run_prepare(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.num("--seed", 1));
  const std::string dir = args.str("--dir");
  const Corpus corpus = build_corpus(sim::summit_v100(), RunScale::kDefault,
                                     seed, false, 1);
  model::ModelConfig config;
  config.seed = seed;
  const model::ParaGraphModel model(config);
  model::save_checkpoint_file(dir + "/serve.ckpt", model,
                              model::CheckpointScalers::from_sample_set(corpus.set));
  std::vector<const model::TrainingSample*> samples;
  for (const auto& s : corpus.set.train) samples.push_back(&s);
  for (const auto& s : corpus.set.validation) samples.push_back(&s);
  std::ofstream os(dir + "/pool.bin", std::ios::binary);
  const std::uint64_t n = samples.size();
  os.write(reinterpret_cast<const char*>(&n), sizeof n);
  std::vector<double> encode_us;
  for (const auto* s : samples) {
    const std::int64_t t0 = wall_ns();
    const std::string bytes = serve::Client::sample_bytes(*s);
    encode_us.push_back((wall_ns() - t0) / 1e3);
    const std::uint64_t len = bytes.size();
    os.write(reinterpret_cast<const char*>(&len), sizeof len);
    os.write(bytes.data(), static_cast<std::streamsize>(len));
  }
  check(os.good(), "pgbench: cannot write payload pool");
  Json out;
  out.add("pool", static_cast<double>(n));
  out.add("io.sample_encode_us", median(encode_us));
  out.print();
  return 0;
}

/// Zipf(s) index picker by inverse CDF; s = 0 is uniform.
class Picker {
 public:
  Picker(std::size_t count, double skew, std::uint64_t seed) : rng_(seed) {
    double total = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t next() {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng_.uniform());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

/// Closed-loop generator: one thread, `connections` sockets, each with
/// exactly one request in flight. Every predict reply is checked bitwise
/// against in-process predict_one on the same payload and checkpoint.
int run_gen(const Args& args) {
  const auto port = static_cast<std::uint16_t>(args.num("--port", 0));
  const std::string dir = args.str("--dir");
  const double seconds = args.real("--seconds", 10.0);
  constexpr double warmup_s = 1.0;
  const bool trace = args.num("--trace", 0) != 0;
  const auto seed = static_cast<std::uint64_t>(args.num("--seed", 1));
  const auto connections = static_cast<std::size_t>(args.num("--connections", 4));
  const double zipf = args.real("--zipf", 0.0);
  const long daemon_pid = static_cast<long>(args.num("--daemon-pid", 0));
  constexpr double slice_s = 0.25;
  omp_set_num_threads(1);

  // Reference predictions, outside every measured window.
  const std::vector<std::string> pool = read_pool(dir + "/pool.bin");
  model::ParaGraphModel model(model::ModelConfig{});
  (void)model::load_checkpoint_file(dir + "/serve.ckpt", model);
  model::InferenceEngine engine(model);
  std::vector<std::uint64_t> reference(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const model::TrainingSample s = decode_payload(pool[i]);
    reference[i] = std::bit_cast<std::uint64_t>(engine.predict_one(s.graph, s.aux));
  }

  Picker picker(pool.size(), zipf, seed * 0x2545f4914f6cdd1dULL + 7);
  struct Conn {
    serve::Socket socket;
    std::size_t payload = 0;
    std::int64_t sent_ns = 0;
    int phase = 0;
    std::uint32_t span = Tracer::kNoParent;
  };
  std::vector<Conn> conns(connections);
  std::vector<pollfd> fds(connections);

  // Phases: 0 warm-up, 1 measured untraced, 2 measured traced.
  struct PhaseCounts {
    std::uint64_t sent = 0, ok = 0, failed = 0, busy = 0;
    std::vector<double> latency_us;
    std::int64_t start_ns = 0, end_ns = 0;
    std::int64_t gen_cpu_ns = 0, daemon_cpu_ns = 0;
    std::vector<double> slice_tput, slice_cpu_us, slice_p50_us;
  };
  std::array<PhaseCounts, 3> ph;
  Tracer tracer(trace);
  std::vector<double> decode_us;
  const std::int64_t t_start = wall_ns();
  const std::int64_t t_warm = t_start + static_cast<std::int64_t>(warmup_s * 1e9);
  const double measured = trace ? seconds / 2 : seconds;
  const std::int64_t t_mid = t_warm + static_cast<std::int64_t>(measured * 1e9);
  const std::int64_t t_end =
      trace ? t_mid + static_cast<std::int64_t>(seconds / 2 * 1e9) : t_mid;
  auto phase_at = [&](std::int64_t t) {
    return t < t_warm ? 0 : (t < t_mid ? 1 : (t < t_end ? 2 : -1));
  };
  std::uint64_t next_id = 1;
  auto send = [&](Conn& c, std::int64_t now) {
    c.payload = picker.next();
    c.phase = phase_at(now);
    const std::uint64_t id = next_id++;
    const std::string& bytes = pool[c.payload];
    const auto frame = serve::encode_frame(serve::FrameKind::kPredictRequest, id,
                                           bytes.data(), bytes.size());
    c.span = c.phase == 2 ? tracer.begin("serve.request", Tracer::kNoParent, id)
                          : Tracer::kNoParent;
    c.sent_ns = wall_ns();
    c.socket.write_all(frame.data(), frame.size());
    ++ph[c.phase].sent;
  };

  int current = 0;
  std::int64_t slice_start = 0, slice_daemon = 0;
  std::vector<double> slice_latency_us;
  auto close_slice = [&](std::int64_t now) {
    const std::int64_t d = other_process_cpu_ns(daemon_pid);
    const auto ok = static_cast<double>(slice_latency_us.size());
    if (current > 0 && ok > 0) {
      ph[current].slice_tput.push_back(ok / ((now - slice_start) / 1e9));
      ph[current].slice_cpu_us.push_back((d - slice_daemon) / 1e3 / ok);
      ph[current].slice_p50_us.push_back(median(slice_latency_us));
    }
    slice_start = now;
    slice_daemon = d;
    slice_latency_us.clear();
  };
  auto enter_phase = [&](int next, std::int64_t now) {
    close_slice(now);
    const std::int64_t g = process_cpu_ns(), d = other_process_cpu_ns(daemon_pid);
    if (current > 0) {
      ph[current].end_ns = now;
      ph[current].gen_cpu_ns += g;
      ph[current].daemon_cpu_ns += d;
    }
    if (next > 0) {
      ph[next].start_ns = now;
      ph[next].gen_cpu_ns = -g;
      ph[next].daemon_cpu_ns = -d;
    }
    current = next;
  };

  try {
    for (std::size_t i = 0; i < connections; ++i) {
      conns[i].socket = serve::connect_loopback(port);
      conns[i].socket.set_nodelay(true);
      fds[i] = {conns[i].socket.fd(), POLLIN, 0};
    }
    for (Conn& c : conns) send(c, wall_ns());
    std::size_t outstanding = connections;
    std::vector<std::uint8_t> payload;
    while (outstanding > 0) {
      const int ready = ::poll(fds.data(), fds.size(), 1000);
      check(ready > 0, "pgbench gen: no reply within 1 s");
      for (std::size_t i = 0; i < connections; ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& c = conns[i];
        std::uint8_t hb[serve::kFrameHeaderBytes];
        check(c.socket.read_exact(hb, sizeof hb), "pgbench gen: daemon closed");
        const std::int64_t got = wall_ns();
        serve::FrameHeader header;
        check(serve::decode_header(hb, header) == serve::HeaderVerdict::kOk,
              "pgbench gen: malformed reply header");
        payload.resize(header.payload_bytes);
        if (!payload.empty()) c.socket.read_exact(payload.data(), payload.size());
        PhaseCounts& pc = ph[c.phase];
        const std::int64_t d0 = wall_ns();
        const std::uint32_t ds =
            c.phase == 2 ? tracer.begin("io.reply_decode", c.span, header.request_id)
                         : Tracer::kNoParent;
        const auto reply =
            header.kind == serve::FrameKind::kPredictReply
                ? serve::decode_predict_reply_payload(payload.data(), payload.size())
                : std::nullopt;
        tracer.end(ds);
        if (c.phase == 2) decode_us.push_back((wall_ns() - d0) / 1e3);
        tracer.end(c.span);
        if (header.kind == serve::FrameKind::kBusyReply) ++pc.busy;
        if (reply && std::bit_cast<std::uint64_t>(reply->scaled) == reference[c.payload]) {
          ++pc.ok;
          pc.latency_us.push_back((got - c.sent_ns) / 1e3);
          if (c.phase == current) slice_latency_us.push_back((got - c.sent_ns) / 1e3);
        } else {
          ++pc.failed;
        }
        --outstanding;
        const std::int64_t now = wall_ns();
        const int want = phase_at(now);
        if (want != current) enter_phase(want < 0 ? 0 : want, now);
        else if (current > 0 && now - slice_start >= static_cast<std::int64_t>(slice_s * 1e9))
          close_slice(now);
        if (want >= 0) {
          send(c, now);
          ++outstanding;
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pgbench gen: %s\n", e.what());
    return 1;
  }

  Json out;
  add_machine(out);
  auto emit = [&](const std::string& prefix, PhaseCounts& p) {
    std::sort(p.latency_us.begin(), p.latency_us.end());
    const double p99 = percentile_sorted(p.latency_us, 0.99);
    const double wall_s = (p.end_ns - p.start_ns) / 1e9;
    out.add(prefix + "sent", static_cast<double>(p.sent));
    out.add(prefix + "ok", static_cast<double>(p.ok));
    out.add(prefix + "failed", static_cast<double>(p.failed));
    out.add(prefix + "busy", static_cast<double>(p.busy));
    if (prefix == "warmup.") return;
    out.add(prefix + "throughput_per_s", quiet_rate(p.slice_tput));
    out.add(prefix + "cpu_us_per_op", quiet_cost(p.slice_cpu_us));
    out.add(prefix + "latency_p50_us", quiet_cost(p.slice_p50_us));
    out.add(prefix + "latency_p99_us", p99);
    out.add(prefix + "latency_p99_beyond",
            static_cast<double>(p.latency_us.end() -
                                std::upper_bound(p.latency_us.begin(),
                                                 p.latency_us.end(), p99)));
    out.add(prefix + "gen_cpu_share",
            static_cast<double>(p.gen_cpu_ns) /
                static_cast<double>(p.gen_cpu_ns + p.daemon_cpu_ns));
    out.add(prefix + "gen_thread_util", p.gen_cpu_ns / 1e9 / wall_s);
  };
  emit("warmup.", ph[0]);
  emit("", ph[1]);
  if (trace) {
    emit("traced.", ph[2]);
    out.add("io.reply_decode_us", median(decode_us));
    out.add("trace.attributed_share", tracer.covered_share(ph[2].start_ns, ph[2].end_ns));
    tracer.write(args.str("--trace-out"), 20000);
  }
  out.print();
  return 0;
}

/// Replays the daemon's mean batch size through predict_batch in-process on
/// one thread, so engine time per graph can be set against the daemon's CPU
/// per request.
int run_replay(const Args& args) {
  const std::string dir = args.str("--dir");
  const auto batch = static_cast<std::size_t>(std::max<std::int64_t>(1, args.num("--batch", 1)));
  constexpr double seconds = 1.0;
  omp_set_num_threads(1);
  const std::vector<std::string> pool = read_pool(dir + "/pool.bin");
  model::ParaGraphModel model(model::ModelConfig{});
  (void)model::load_checkpoint_file(dir + "/serve.ckpt", model);
  model::InferenceEngine engine(model);
  std::vector<model::EncodedGraph> graphs;
  std::vector<std::array<float, 2>> aux;
  for (const auto& bytes : pool) {
    model::TrainingSample s = decode_payload(bytes);
    graphs.push_back(std::move(s.graph));
    aux.push_back(s.aux);
  }
  std::vector<double> out_scaled(batch);
  std::vector<double> per_graph_us;
  const std::int64_t deadline = wall_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t at = 0;
  const auto warm = engine.schedule_stats();
  while (wall_ns() < deadline) {
    if (at + batch > graphs.size()) at = 0;
    const std::span<const model::EncodedGraph> g(graphs.data() + at, batch);
    const std::span<const std::array<float, 2>> a(aux.data() + at, batch);
    const std::int64_t t0 = wall_ns();
    engine.predict_batch(g, a, out_scaled);
    per_graph_us.push_back((wall_ns() - t0) / 1e3 / static_cast<double>(batch));
    at += batch;
  }
  Json out;
  out.add("engine.us_per_graph", median(per_graph_us));
  add_engine_stats(out, engine.schedule_stats() - warm);
  out.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pgbench train|advise|prepare|gen|replay [--key value]...\n");
    return 2;
  }
  const std::string mode = argv[1];
  const Args args(argc, argv);
  try {
    if (mode == "train") return run_train(args);
    if (mode == "advise") return run_advise(args);
    if (mode == "prepare") return run_prepare(args);
    if (mode == "gen") return run_gen(args);
    if (mode == "replay") return run_replay(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pgbench %s: %s\n", mode.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "pgbench: unknown mode '%s'\n", mode.c_str());
  return 2;
}
