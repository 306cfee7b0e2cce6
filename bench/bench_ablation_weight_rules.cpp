// Extra ablation (DESIGN.md experiment M2): how much each of ParaGraph's
// *weighting rules* contributes, on the MI50 dataset.
//
// Rows:
//   full ParaGraph        — trip-count weights / worker division / p=1/2
//   no worker division    — weights carry raw trip counts (the paper's
//                           static-schedule division disabled)
//   branch probability 1  — if-branches not halved
//   trip fallback only    — every loop weighted by the fallback constant
//                           (loop extents removed; isolates how much of the
//                           signal is the extent itself)
//
// The paper motivates each rule qualitatively (§III-A.3); this bench
// quantifies them. Expected shape: "trip fallback only" degrades toward the
// Augmented-AST error of Table IV; the other two rules matter less but are
// visible.
#include <numeric>

#include "bench_common.hpp"
#include "frontend/parser.hpp"
#include "graph/builder.hpp"

namespace {

using namespace pg;

/// Variant of dataset::build_sample_set that lets us bend the weight rules.
model::SampleSet build_with_rules(const std::vector<dataset::RawDataPoint>& points,
                                  bool divide_by_workers, double branch_probability,
                                  bool force_fallback_trips) {
  // Mirrors dataset::build_sample_set but with custom BuildOptions.
  std::vector<graph::ProgramGraph> graphs(points.size());
#pragma omp parallel for schedule(dynamic, 8)
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto parsed = frontend::parse_source(points[i].source);
    graph::BuildOptions options;
    options.representation = graph::Representation::kParaGraph;
    const bool gpu = points[i].variant.starts_with("gpu");
    options.parallel_workers =
        divide_by_workers
            ? std::max<std::int64_t>(1, gpu ? points[i].num_teams *
                                                  points[i].num_threads
                                            : points[i].num_threads)
            : 1;
    options.branch_probability = branch_probability;
    if (force_fallback_trips) {
      // Weight every loop by the same constant: kill the extent signal by
      // capping weights at the fallback value.
      options.max_weight = static_cast<double>(options.unknown_trip_fallback);
    }
    graphs[i] = graph::build_graph(parsed.root(), options);
  }

  // Assemble the sample set (9:1 split, scalers on train only).
  model::SampleSet set;
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), 0);
  pg::Rng rng(13);
  rng.shuffle(order);
  const std::size_t val_count = std::max<std::size_t>(1, points.size() / 10);
  const std::size_t train_count = points.size() - val_count;

  double max_weight = 1.0;
  std::vector<double> runtimes, teams, threads;
  for (std::size_t k = 0; k < train_count; ++k) {
    const auto i = order[k];
    max_weight = std::max(max_weight,
                          static_cast<double>(graphs[i].max_child_weight()));
    runtimes.push_back(points[i].runtime_us);
    teams.push_back(static_cast<double>(points[i].num_teams));
    threads.push_back(static_cast<double>(points[i].num_threads));
  }
  set.child_weight_scale = max_weight;
  set.target_scaler.fit(runtimes);
  set.teams_scaler.fit(teams);
  set.threads_scaler.fit(threads);

  auto make = [&](std::size_t i) {
    const auto& p = points[i];
    model::TrainingSample s;
    s.graph = model::encode_graph(graphs[i], set.child_weight_scale);
    s.aux = set.aux_for(p.num_teams, p.num_threads);
    s.target_scaled = set.target_scaler.transform(p.runtime_us);
    s.runtime_us = p.runtime_us;
    s.app_id = p.app_id;
    s.app_name = p.app;
    s.variant = p.variant;
    return s;
  };
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k < train_count) set.train.push_back(make(order[k]));
    else set.validation.push_back(make(order[k]));
  }
  return set;
}

}  // namespace

int main() {
  using namespace pg;
  bench::BenchConfig config;
  bench::print_header("Extra ablation: ParaGraph weighting rules (MI50)",
                      config);

  dataset::GenerationConfig gen;
  gen.scale = config.scale;
  gen.seed = config.seed;
  const auto points = dataset::generate_dataset(sim::corona_mi50(), gen);

  struct Rule {
    const char* name;
    bool divide;
    double branch_p;
    bool fallback_only;
  };
  const Rule rules[] = {
      {"full ParaGraph", true, 0.5, false},
      {"no worker division", false, 0.5, false},
      {"branch probability 1.0", true, 1.0, false},
      {"trip fallback only (no extents)", true, 0.5, true},
  };

  TextTable table({"Weight rule", "RMSE (ms)", "Norm-RMSE"});
  CsvWriter csv("ablation_weight_rules.csv",
                {"rule", "rmse_ms", "norm_rmse"});
  for (const Rule& rule : rules) {
    auto set = build_with_rules(points, rule.divide, rule.branch_p,
                                rule.fallback_only);
    model::ModelConfig model_config;
    model_config.hidden_dim = config.hidden_dim;
    model::ParaGraphModel m(model_config);
    model::TrainConfig train;
    train.epochs = config.epochs;
    const auto result = model::train_model(m, set, train);
    table.add_row({rule.name, format_double(result.final_rmse_us / 1e3, 5),
                   format_sci(result.final_norm_rmse, 2)});
    csv.add_row({rule.name, format_double(result.final_rmse_us / 1e3, 8),
                 format_double(result.final_norm_rmse, 8)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("expected shape: removing loop extents ('trip fallback only') "
              "hurts most;\nworker division and branch halving are smaller "
              "but visible effects\n");
  std::printf("wrote ablation_weight_rules.csv\n");
  return 0;
}
