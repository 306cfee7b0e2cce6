// Extra experiment (DESIGN.md A1): variant selection quality.
//
// The paper's abstract: "The predicted runtime of the model is used to
// determine which transformation provides the best performance." This bench
// measures that end use directly, on *held-out problem sizes* (each
// kernel's full-scale size list, disjoint from the default training sweep),
// across the CPU *and* GPU of the Summit-like cluster — the cross-device
// choice is exactly where static heuristics fail (small kernels lose more
// to offload latency than they gain from GPU parallelism).
//
//   for every (kernel, unseen size): enumerate cpu variants x thread counts
//   plus gpu variants x launch configs; predict each candidate's runtime
//   with the per-device ParaGraph models; pick the argmin; compare with the
//   simulator's noise-free ground truth.
//
// Reported: top-1 accuracy (within 5% of optimal counts as a hit — ties on
// the runtime floor are common), mean/max slowdown vs the optimum, and two
// baselines: "always offload with max parallelism" and random choice.
#include <algorithm>

#include "bench_common.hpp"
#include "frontend/parser.hpp"

namespace {

using namespace pg;

struct Candidate {
  bool gpu = false;
  dataset::Variant variant{};
  std::int64_t teams = 1;
  std::int64_t threads = 1;
  double predicted_us = 0.0;
  double actual_us = 0.0;
};

struct DeviceAdvisor {
  sim::Platform platform;
  model::SampleSet set;
  std::unique_ptr<model::ParaGraphModel> model;
};

DeviceAdvisor make_advisor(const sim::Platform& platform,
                           const bench::BenchConfig& config, bool log_target) {
  DeviceAdvisor advisor{platform, {}, nullptr};
  dataset::GenerationConfig gen;
  gen.scale = config.scale;
  gen.seed = config.seed;
  const auto points = dataset::generate_dataset(platform, gen);
  dataset::SampleBuildConfig build;
  build.log_target = log_target;
  advisor.set = dataset::build_sample_set(points, build);
  model::ModelConfig model_config;
  model_config.hidden_dim = config.hidden_dim;
  advisor.model = std::make_unique<model::ParaGraphModel>(model_config);
  model::TrainConfig train;
  train.epochs = config.epochs;
  (void)model::train_model(*advisor.model, advisor.set, train);
  return advisor;
}

/// Predicted runtime of a candidate from its already-built graph; the lin
/// and log advisors of a device share the graph and differ in encoding
/// scale, model and target transform.
double predict_candidate(const DeviceAdvisor& advisor, const graph::ProgramGraph& g,
                         const Candidate& c) {
  const auto enc = model::encode_graph(g, advisor.set.child_weight_scale);
  return advisor.set.from_target(
      advisor.model->predict(enc, advisor.set.aux_for(c.teams, c.threads)));
}

/// The simulator's noise-free ground truth for a parsed candidate.
double measure_candidate(const sim::Platform& platform, const frontend::AstNode* root) {
  sim::SimOptions noise_free;
  noise_free.noise_sigma = 0.0;
  return sim::simulate_runtime_us(sim::profile_kernel(root), platform, noise_free);
}

}  // namespace

int main() {
  using namespace pg;
  bench::BenchConfig config;
  bench::print_header(
      "Extra: advisor variant selection across CPU+GPU (Summit, held-out sizes)",
      config);

  // Two advisor flavours: the paper's raw-runtime target, and the
  // log-runtime extension (better *ranking* resolution for small kernels).
  const DeviceAdvisor cpu_lin = make_advisor(sim::summit_power9(), config, false);
  const DeviceAdvisor gpu_lin = make_advisor(sim::summit_v100(), config, false);
  const DeviceAdvisor cpu_log = make_advisor(sim::summit_power9(), config, true);
  const DeviceAdvisor gpu_log = make_advisor(sim::summit_v100(), config, true);

  const std::vector<std::int64_t> cpu_threads = {8, 22};
  const std::vector<std::pair<std::int64_t, std::int64_t>> gpu_configs = {
      {64, 128}, {256, 256}, {1024, 256}};

  struct SelectorStats {
    std::size_t hits = 0;
    double regret = 0.0;
    double worst = 1.0;
    void record(double chosen_us, double best_us) {
      hits += (chosen_us <= 1.05 * best_us);
      regret += chosen_us / best_us;
      worst = std::max(worst, chosen_us / best_us);
    }
  };
  SelectorStats lin_stats, log_stats, offload_stats;
  double random_regret = 0.0;
  std::size_t groups = 0;

  CsvWriter csv("advisor_selection.csv",
                {"kernel", "size", "chosen_log", "best", "regret_log"});

  for (const auto& spec : dataset::benchmark_suite()) {
    for (const auto& size : spec.extra_full_sizes) {
      std::vector<Candidate> candidates;
      for (const auto variant : dataset::applicable_variants(spec, false))
        for (const std::int64_t threads : cpu_threads)
          candidates.push_back({false, variant, 1, threads});
      for (const auto variant : dataset::applicable_variants(spec, true))
        for (const auto& [teams, threads] : gpu_configs)
          candidates.push_back({true, variant, teams, threads});

      std::vector<double> pred_lin(candidates.size());
      std::vector<double> pred_log(candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        Candidate& c = candidates[i];
        dataset::RawDataPoint point;
        point.variant = std::string(dataset::variant_name(c.variant));
        point.num_teams = c.teams;
        point.num_threads = c.threads;
        point.source =
            dataset::instantiate_source(spec, c.variant, size, c.teams, c.threads);
        // One parse feeds the ground truth and the graph both advisors read.
        const auto parsed = frontend::parse_source(point.source);
        check(parsed.ok(), "advisor: candidate failed to parse");
        c.actual_us = measure_candidate(c.gpu ? gpu_lin.platform : cpu_lin.platform,
                                        parsed.root());
        const graph::ProgramGraph g = graph::build_graph(
            parsed.root(),
            dataset::point_build_options(point, graph::Representation::kParaGraph));
        pred_lin[i] = predict_candidate(c.gpu ? gpu_lin : cpu_lin, g, c);
        pred_log[i] = predict_candidate(c.gpu ? gpu_log : cpu_log, g, c);
      }

      auto argmin = [&](const std::vector<double>& keys) {
        std::size_t best_i = 0;
        for (std::size_t i = 1; i < keys.size(); ++i)
          if (keys[i] < keys[best_i]) best_i = i;
        return best_i;
      };
      std::vector<double> actuals(candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i)
        actuals[i] = candidates[i].actual_us;
      const Candidate& best = candidates[argmin(actuals)];
      const Candidate& chosen_lin = candidates[argmin(pred_lin)];
      const Candidate& chosen_log = candidates[argmin(pred_log)];

      // Baseline: always offload, max parallelism, collapse if legal, no
      // explicit transfer.
      const Candidate offload = *std::min_element(
          candidates.begin(), candidates.end(),
          [](const Candidate& a, const Candidate& b) {
            auto key = [](const Candidate& c) {
              return std::tuple(
                  -static_cast<int>(c.gpu),
                  -static_cast<int>(dataset::variant_has_collapse(c.variant)),
                  static_cast<int>(dataset::variant_has_transfer(c.variant)),
                  -(c.teams * c.threads));
            };
            return key(a) < key(b);
          });

      ++groups;
      lin_stats.record(chosen_lin.actual_us, best.actual_us);
      log_stats.record(chosen_log.actual_us, best.actual_us);
      offload_stats.record(offload.actual_us, best.actual_us);
      double group_random = 0.0;
      for (const auto& c : candidates) group_random += c.actual_us / best.actual_us;
      random_regret += group_random / static_cast<double>(candidates.size());

      std::string size_str;
      for (const auto& [k, v] : size) size_str += k + "=" + std::to_string(v) + " ";
      auto label = [](const Candidate& c) {
        return (c.gpu ? "V100/" : "POWER9/") +
               std::string(dataset::variant_name(c.variant));
      };
      csv.add_row({spec.kernel, size_str, label(chosen_log), label(best),
                   format_double(chosen_log.actual_us / best.actual_us, 6)});
    }
  }

  const double n = static_cast<double>(groups);
  TextTable table(
      {"Selector", "Within 5% of optimal", "Mean slowdown", "Worst slowdown"});
  auto add = [&](const char* name, const SelectorStats& st) {
    table.add_row({name, format_double(100.0 * st.hits / n, 3) + "%",
                   format_double(st.regret / n, 4) + "x",
                   format_double(st.worst, 3) + "x"});
  };
  add("ParaGraph advisor (runtime target)", lin_stats);
  add("ParaGraph advisor (log-runtime target)", log_stats);
  add("always-offload heuristic", offload_stats);
  table.add_row({"random candidate", "-",
                 format_double(random_regret / n, 4) + "x", "-"});
  std::printf("%s\n", table.render().c_str());
  std::printf("%zu (kernel, held-out size) groups\n", groups);
  std::printf("wrote advisor_selection.csv\n");
  return 0;
}
