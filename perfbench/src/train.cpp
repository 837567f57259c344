// Training phase: workload shapes, the untraced Trainer::train() run, and
// the traced replay of the adaptive SGD loop through the public runtime
// calls.
#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/merging.h"
#include "fault/checkpoint.h"
#include "sim/profiles.h"
#include "workloads.h"

namespace perfbench {

namespace {

// The default hetero_train shape: Amazon-shaped data, 4096 features x 1024
// classes, mlp hidden 48, 4 V100-class GPUs at a 0.32 speed gap, 40
// batches of 128 per mega-batch, fp32 dense merges.
TrainShape default_shape(std::uint64_t seed, std::size_t megabatches) {
  TrainShape s;
  s.data = data::amazon670k_small();
  s.data.num_features = 4096;
  s.data.num_classes = 1024;
  s.data.num_train = 8000;
  s.data.num_test = 1600;
  s.data.seed = seed;
  auto& c = s.cfg;
  c.model_kind = nn::ModelKind::kMlp;
  c.hidden = 48;
  c.hidden_layers = {48};
  c.batch_max = 128;
  c.batches_per_megabatch = 40;
  c.num_megabatches = megabatches;
  c.learning_rate = 0.5;
  c.compute_scale = 100.0;
  c.kernel_threads = 1;
  s.devices = sim::v100_heterogeneous(4, 0.32);
  // Curves of this shape jump past 0.93 around mega-batch 7 on every seed
  // tried; lower targets fall where the early curve still swings by tens
  // of points from seed to seed.
  s.tta_target = 0.93;
  return s;
}

// A wide model on a two-level cluster with compressed delta merges after
// every 4 batches: merge, quantization, L2-gate and checkpoint work are a
// large share of the loop, step math a small one.
TrainShape merge_shape(std::uint64_t seed) {
  TrainShape s;
  s.data = data::amazon670k_small();
  s.data.num_features = std::size_t{1} << 17;
  s.data.num_classes = 1024;
  s.data.num_train = 8000;
  s.data.num_test = 1600;
  s.data.seed = seed;
  auto& c = s.cfg;
  c.model_kind = nn::ModelKind::kMlp;
  c.hidden = 64;
  c.hidden_layers = {64};
  c.batch_max = 128;
  c.batch_min = 4;
  c.batches_per_megabatch = 4;
  c.num_megabatches = 24;
  c.learning_rate = 0.5;
  c.compute_scale = 100.0;
  c.kernel_threads = 1;
  c.sparse_merge = true;
  c.merge_precision = comm::MergePrecision::kInt8;
  c.num_nodes = 2;
  c.cpu_replicas = 1;
  s.devices = sim::cluster_devices(2, 2, 1, 0.32, 0.03, 25.0);
  // Later targets are crossed on the recovery after the early int8 dip,
  // anywhere from mega-batch 7 to 14 depending on the seed (IQR/median of
  // 0.19 at 0.75 over 10 seeds); 0.55 is crossed in the first one or two.
  s.tta_target = 0.55;
  s.checkpoint_every = 12;
  return s;
}

double vtime_now(const core::MultiGpuRuntime& rt) {
  double t = 0.0;
  for (std::size_t g = 0; g < rt.num_gpus(); ++g) {
    t = std::max(t, rt.gpu(g).device_free_at());
  }
  return t;
}

void finish_result(const core::MultiGpuRuntime& rt, core::TrainResult& r) {
  r.total_vtime = vtime_now(rt);
  for (std::size_t g = 0; g < rt.num_gpus(); ++g) {
    auto& trace = r.gpus[g];
    trace.busy_seconds = rt.gpu(g).busy_seconds();
    trace.total_updates = 0;
    for (auto u : trace.updates) trace.total_updates += u;
  }
  r.faults = rt.fault_stats();
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "train_step") {
    w.train = default_shape(seed, 12);
  } else if (name == "train_merge") {
    w.train = merge_shape(seed);
    // The wide int8-merged model's LSH recall@5 ranges 0.26-0.99 over
    // seeds (its output layer sees ~1.5 passes), below the 0.95 gate, so
    // this workload serves a default-shape model instead.
    w.serve_model = default_shape(seed, 10);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::uint64_t replicate_seed(std::uint64_t seed, std::size_t r) {
  return seed * 1000003u + 7919u * (r + 1);
}

data::XmlDataset replicate_dataset(const TrainShape& shape,
                                   std::uint64_t seed, std::size_t r) {
  auto cfg = shape.data;
  cfg.seed = replicate_seed(seed, r) ^ 0x9e3779b97f4a7c15ull;
  return data::generate_xml_dataset(cfg);
}

std::unique_ptr<core::AdaptiveSgdTrainer> build_trainer(
    const data::XmlDataset& dataset, const TrainShape& shape,
    std::uint64_t trainer_seed) {
  auto cfg = shape.cfg;
  cfg.seed = trainer_seed;
  return std::make_unique<core::AdaptiveSgdTrainer>(dataset, cfg,
                                                    shape.devices);
}

TrainOutcome train_untraced(core::AdaptiveSgdTrainer& trainer,
                            const TrainShape& shape,
                            const std::string& ckpt_path) {
  if (shape.checkpoint_every > 0) {
    fault::enable_periodic_checkpoint(trainer, ckpt_path,
                                      shape.checkpoint_every);
  }
  TrainOutcome out;
  const auto t0 = Clock::now();
  out.result = trainer.train();
  out.loop_s = seconds_since(t0);
  out.samples = trainer.runtime().samples_served();
  out.final_model = trainer.runtime().global_model().clone();
  return out;
}

TrainOutcome train_replay(core::AdaptiveSgdTrainer& trainer,
                          const TrainShape& shape,
                          const std::string& ckpt_path, SpanLog* log,
                          std::vector<CapturedBatch>* batches) {
  auto& rt = trainer.runtime();
  const auto& cfg = trainer.config();
  // The replay covers the healthy adaptive path with the shapes above:
  // no warmup, LR decay, scaling cadence, early stop or time budget.
  if (cfg.warmup_megabatches != 0 || cfg.lr_decay_every != 0 ||
      cfg.adaptive_scaling_cadence || cfg.early_stop_patience != 0 ||
      cfg.virtual_time_budget != 0.0 || !cfg.dynamic_scheduling ||
      rt.has_fault_schedule()) {
    throw std::logic_error("train_replay: shape outside the replayed path");
  }
  const std::size_t n = rt.num_gpus();
  const std::size_t mega = cfg.megabatch_samples();

  TrainOutcome out;
  auto& result = out.result;
  result.method = trainer.method_name();
  result.dataset = rt.dataset().name;
  result.num_gpus = n;
  result.num_nodes = std::max<std::size_t>(1, cfg.num_nodes);
  result.cpu_replicas = cfg.cpu_replicas;
  result.gpus.resize(n);
  std::vector<core::GpuSgdState> sgd(
      n, core::GpuSgdState{cfg.batch_max, cfg.learning_rate, 0});

  const auto t0 = Clock::now();
  SpanLog::Scope train_span(log, "train");
  {
    SpanLog::Scope s(log, "record_curve_point");
    rt.record_curve_point(result, vtime_now(rt), 0, 0.0);
  }
  double best_top1 = result.curve.back().top1;
  std::size_t stagnation = 0;

  for (std::size_t m = 1; m <= cfg.num_megabatches; ++m) {
    {
      SpanLog::Scope mb(log, "megabatch");
      for (auto& s : sgd) s.updates = 0;
      std::size_t assigned = 0;
      while (assigned < mega) {
        std::size_t g;
        {
          SpanLog::Scope s(log, "next_free_gpu");
          g = rt.next_free_gpu();
        }
        const std::size_t b =
            std::min<std::size_t>(sgd[g].batch_size, mega - assigned);
        core::MultiGpuRuntime::Batch batch;
        {
          SpanLog::Scope s(log, "next_batch");
          batch = rt.next_batch(b);
        }
        const double lr = sgd[g].learning_rate;
        if (batches) {
          batches->push_back({batch.x, batch.y, static_cast<float>(lr)});
        }
        {
          SpanLog::Scope s(log, "run_update_step");
          rt.run_update_step(g, std::move(batch), lr, rt.gpu_free_at(g));
        }
        sgd[g].updates += 1;
        result.gpus[g].total_samples += b;
        assigned += b;
      }

      double all_free = 0.0;
      for (std::size_t g = 0; g < n; ++g) {
        all_free = std::max(all_free, rt.gpu(g).device_free_at());
      }
      {
        SpanLog::Scope s(log, "math_barrier");
        rt.math_barrier();
      }
      rt.apply_crashes_until(all_free);

      double sync = 0.0;
      std::vector<std::size_t> alive;
      for (std::size_t g = 0; g < n; ++g) {
        if (!rt.replica_alive(g)) continue;
        alive.push_back(g);
        sync = std::max(sync, rt.gpu(g).device_free_at());
      }

      core::MergeInputs inputs;
      inputs.pert_threshold = cfg.pert_threshold;
      inputs.pert_delta = cfg.pert_delta;
      inputs.enable_perturbation = cfg.enable_perturbation;
      inputs.normalization = cfg.merge_normalization;
      for (std::size_t g : alive) {
        inputs.updates.push_back(sgd[g].updates);
        inputs.batch_sizes.push_back(sgd[g].batch_size);
        SpanLog::Scope s(log, "l2_norm_per_parameter");
        inputs.l2_per_param.push_back(rt.replica(g).l2_norm_per_parameter());
      }
      core::MergeWeights weights;
      {
        SpanLog::Scope s(log, "compute_merge_weights");
        weights = core::compute_merge_weights(inputs);
      }
      const auto full = core::expand_alive_weights(weights.alpha, alive, n);
      core::MultiGpuRuntime::MergeTiming timing;
      {
        SpanLog::Scope s(log, "merge_and_update");
        timing = rt.merge_and_update(full, sync);
      }
      result.merges += 1;
      if (weights.perturbed) result.perturbed_merges += 1;
      result.comm_seconds +=
          timing.allreduce_seconds + timing.host_roundtrip_seconds;
      out.payload_bytes += timing.payload_bytes;
      out.wire_bytes += timing.wire_bytes;
      out.touched_rows += static_cast<double>(timing.touched_rows);
      out.allreduce_vs += timing.allreduce_seconds;

      for (std::size_t g = 0; g < n; ++g) {
        result.gpus[g].batch_size.push_back(sgd[g].batch_size);
        result.gpus[g].updates.push_back(sgd[g].updates);
      }
      if (cfg.enable_batch_scaling) {
        core::BatchScalingParams params;
        params.batch_min = cfg.derived_batch_min();
        params.batch_max = cfg.batch_max;
        params.beta = cfg.derived_beta();
        std::vector<core::GpuSgdState> alive_sgd;
        for (std::size_t g : alive) alive_sgd.push_back(sgd[g]);
        core::BatchScalingOutcome outcome;
        {
          SpanLog::Scope s(log, "scale_batch_sizes");
          outcome = core::scale_batch_sizes(alive_sgd, params);
        }
        for (std::size_t i = 0; i < alive.size(); ++i) {
          sgd[alive[i]] = alive_sgd[i];
        }
        if (outcome.any_change) result.scaling_updates += 1;
      }
      for (std::size_t g : rt.apply_joins_until(timing.finish)) {
        sgd[g] = core::GpuSgdState{cfg.batch_max, cfg.learning_rate, 0};
      }
    }

    const double t = vtime_now(rt);
    {
      SpanLog::Scope s(log, "record_curve_point");
      rt.record_curve_point(result, t, m, rt.take_mean_loss());
    }
    const double top1 = result.curve.back().top1;
    if (top1 >= best_top1 + cfg.early_stop_delta) {
      best_top1 = top1;
      stagnation = 0;
    } else {
      ++stagnation;
    }
    if (shape.checkpoint_every > 0 &&
        (m % shape.checkpoint_every == 0 || m == cfg.num_megabatches)) {
      // Mirror the trainer's own state so the checkpoint is the one
      // Trainer::train()'s boundary hook writes at this boundary.
      trainer.restore_progress(sgd, m, 0);
      trainer.set_resume_point(m, best_top1, stagnation);
      fault::TrainingCheckpoint ckpt;
      {
        SpanLog::Scope s(log, "capture_checkpoint");
        ckpt = fault::capture_checkpoint(trainer);
      }
      SpanLog::Scope s(log, "save_checkpoint_file");
      fault::save_checkpoint_file(ckpt_path, ckpt);
    }
  }
  finish_result(rt, result);
  out.loop_s = seconds_since(t0);
  out.samples = rt.samples_served();
  out.final_model = rt.global_model().clone();
  return out;
}

std::string compare_outcomes(const TrainOutcome& a, const TrainOutcome& b) {
  const auto& x = a.result;
  const auto& y = b.result;
  if (x.curve.size() != y.curve.size()) return "curve length";
  for (std::size_t i = 0; i < x.curve.size(); ++i) {
    const auto& p = x.curve[i];
    const auto& q = y.curve[i];
    if (p.vtime != q.vtime || p.samples != q.samples || p.passes != q.passes ||
        p.megabatch != q.megabatch || p.top1 != q.top1 || p.top5 != q.top5 ||
        p.test_loss != q.test_loss || p.train_loss != q.train_loss ||
        p.alive_gpus != q.alive_gpus) {
      return "curve point " + std::to_string(i);
    }
  }
  if (x.total_vtime != y.total_vtime) return "total virtual time";
  if (x.comm_seconds != y.comm_seconds) return "comm seconds";
  if (x.merges != y.merges || x.perturbed_merges != y.perturbed_merges ||
      x.scaling_updates != y.scaling_updates) {
    return "merge counters";
  }
  if (x.gpus.size() != y.gpus.size()) return "gpu count";
  for (std::size_t g = 0; g < x.gpus.size(); ++g) {
    const auto& p = x.gpus[g];
    const auto& q = y.gpus[g];
    if (p.batch_size != q.batch_size || p.updates != q.updates ||
        p.total_samples != q.total_samples ||
        p.busy_seconds != q.busy_seconds) {
      return "gpu trace " + std::to_string(g);
    }
  }
  if (a.samples != b.samples) return "samples served";
  const auto fa = a.final_model->to_flat();
  const auto fb = b.final_model->to_flat();
  if (fa.size() != fb.size() ||
      std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(float)) != 0) {
    return "final model parameters";
  }
  return {};
}

}  // namespace perfbench
