// Workload definitions and the training / serving phases they run.
//
// Every workload runs the system's whole pipeline — synthetic data, adaptive
// SGD training on the simulated cluster, publication of the trained model,
// open-loop serving — so every end-to-end metric exists on every workload.
// kTrainShare of --seconds goes to the timed training loop, the rest to
// serving. The workloads differ in shape and in where the run's time goes:
//
//   train_step  the default hetero_train shape. Replica step math dominates
//               the loop; merges are a small share. Kernel and nn changes
//               show here, merge changes should not.
//   train_merge a wide model on 2 nodes x 2 GPUs + 1 CPU replica with
//               sparse int8 merges every 4 batches and periodic
//               checkpoints. Merge, comm, quant and fault changes show
//               here; kernel changes should not.
// The serving phase runs open-loop traffic at 4k and 32k QPS on both
// (traced runs add the capacity ladder), so gather-window and serving-path
// changes show in the traced per-layer metrics of either.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/adaptive_sgd.h"
#include "data/synthetic.h"
#include "nn/model.h"
#include "report.h"
#include "sim/device.h"

namespace perfbench {

using namespace hetero;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "none";    // git commit, when known
  std::string sources = "none";   // digest of the measured sources
  std::string work_dir = ".bench_build/perfbench/run";
};

struct TrainShape {
  data::SyntheticXmlConfig data;
  core::TrainerConfig cfg;
  std::vector<sim::DeviceSpec> devices;
  /// Top-1 target for vtime_tta_s.
  double tta_target = 0.0;
  /// Periodic checkpoint cadence in mega-batches inside the training loop
  /// (0 = none; traced runs then checkpoint once after the loop).
  std::size_t checkpoint_every = 0;
};

struct Workload {
  std::string name;
  TrainShape train;
  /// Set when the workload's own model is not the one served: this shape is
  /// trained (untimed) for the serving phase instead.
  std::optional<TrainShape> serve_model;
};

/// Share of --seconds spent in the timed training loop; serving gets the
/// rest.
inline constexpr double kTrainShare = 0.75;

/// Builds workload `name` for `seed`; throws std::invalid_argument for an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Trainer seed of replicate `r`: each run trains kReplicates seeds derived
/// from the workload seed and reports medians over them.
inline constexpr std::size_t kReplicates = 5;
std::uint64_t replicate_seed(std::uint64_t seed, std::size_t r);

/// Dataset of replicate `r`: the shape's data drawn with a seed of its own,
/// so the medians span kReplicates datasets, not one. A single dataset per
/// workload seed left vtime_tta_s spreading 0.14 of its median over 10
/// seeds, as some datasets reach the top-1 target much later than others.
data::XmlDataset replicate_dataset(const TrainShape& shape,
                                   std::uint64_t seed, std::size_t r);

// --- training phase ----------------------------------------------------------

struct TrainOutcome {
  core::TrainResult result;
  double loop_s = 0.0;  // host wall of the training loop
  std::size_t samples = 0;
  std::unique_ptr<nn::Model> final_model;
  // Merge diagnostics summed over merges (replay only).
  double payload_bytes = 0.0;
  double wire_bytes = 0.0;
  double touched_rows = 0.0;
  double allreduce_vs = 0.0;
};

/// Batches a traced replay handed to run_update_step, for kernel replay.
struct CapturedBatch {
  sparse::CsrMatrix x;
  sparse::CsrMatrix y;
  float lr = 0.0f;
};

/// Untraced Trainer::train() on a freshly built trainer; checkpoints to
/// `ckpt_path` when the shape asks for periodic checkpoints.
TrainOutcome train_untraced(core::AdaptiveSgdTrainer& trainer,
                            const TrainShape& shape,
                            const std::string& ckpt_path);

/// Replays Trainer::train() + AdaptiveSgdTrainer::run_megabatch (healthy
/// path) through the public runtime calls on a freshly built trainer,
/// recording a span around each call in `log` (may be null) and copying
/// each step's batch into `batches` (may be null).
TrainOutcome train_replay(core::AdaptiveSgdTrainer& trainer,
                          const TrainShape& shape,
                          const std::string& ckpt_path, SpanLog* log,
                          std::vector<CapturedBatch>* batches);

/// Checks that two training outcomes agree bit for bit: curve, virtual
/// time, per-GPU traces, counters and the final model's parameters.
/// Returns an empty string on a match, else the first difference.
std::string compare_outcomes(const TrainOutcome& a, const TrainOutcome& b);

std::unique_ptr<core::AdaptiveSgdTrainer> build_trainer(
    const data::XmlDataset& dataset, const TrainShape& shape,
    std::uint64_t trainer_seed);

// --- kernel / nn replay ------------------------------------------------------

/// Replays captured batches through the sparse::/tensor:: kernels and the
/// Model's forward/backward/apply on a copy of `model`, adding kernel.* and
/// nn.* metrics to `report`.
void replay_layers(const nn::Model& model,
                   const std::vector<CapturedBatch>& batches,
                   const data::XmlDataset& dataset, std::size_t eval_samples,
                   Report& report);

// --- serving phase -----------------------------------------------------------

/// Publishes `model` and serves it open loop for `seconds`, half at 4k and
/// half at 32k QPS, checking sampled responses against single-thread exact
/// top-k and LSH recall. Adds serve_recall (untraced) or the serve.* and
/// slide.* metrics plus the capacity ladder (traced) to `report`. Returns
/// the LSH recall@5, a deterministic function of the model.
double serve_phase(const nn::Model& model, const data::XmlDataset& dataset,
                   std::uint64_t seed, double seconds, bool traced,
                   Report& report);

}  // namespace perfbench
