// Model checkpointing: save/restore all parameters plus the scalers a
// deployment needs to reproduce predictions (an advisor tool trains once
// and predicts many times).
//
// Format (binary, explicit little-endian — portable across hosts):
//   magic "PGCKPT02", u64 param count, then per parameter u64 rows, u64
//   cols, rows*cols f32; then the three scaler (min,max) f64 pairs, the
//   f64 child-weight scale, and a u8 log-target flag (whether the target
//   scaler operates on log(runtime) — predictions cannot be converted back
//   to microseconds without it).
#pragma once

#include <iosfwd>
#include <string>

#include "model/paragraph_model.hpp"
#include "model/sample.hpp"

namespace pg::model {

/// The scalers that must travel with the weights.
struct CheckpointScalers {
  nn::MinMaxScaler target;
  nn::MinMaxScaler teams;
  nn::MinMaxScaler threads;
  double child_weight_scale = 1.0;
  bool log_target = false;  // see SampleSet::log_target

  static CheckpointScalers from_sample_set(const SampleSet& set) {
    return {set.target_scaler, set.teams_scaler, set.threads_scaler,
            set.child_weight_scale, set.log_target};
  }

  /// Installs the scaler state (including the target transform) into a
  /// SampleSet so from_target/to_target work as they did at training time.
  void apply_to(SampleSet& set) const {
    set.target_scaler = target;
    set.teams_scaler = teams;
    set.threads_scaler = threads;
    set.child_weight_scale = child_weight_scale;
    set.log_target = log_target;
  }
};

void save_checkpoint(std::ostream& os, const ParaGraphModel& model,
                     const CheckpointScalers& scalers);
void save_checkpoint_file(const std::string& path, const ParaGraphModel& model,
                          const CheckpointScalers& scalers);

/// Restores into `model` (must have the same architecture/config as the one
/// saved — parameter shapes are verified). Returns the scalers.
CheckpointScalers load_checkpoint(std::istream& is, ParaGraphModel& model);
CheckpointScalers load_checkpoint_file(const std::string& path,
                                       ParaGraphModel& model);

}  // namespace pg::model
