// perfbench: the repository benchmark. One invocation runs one workload for
// one seed and prints, as its last stdout line, one JSON object with the
// correctness ledger and every metric by name and unit.
//
//   perfbench --workload train_step|train_merge --seed N
//             --seconds S --trace 0|1 [--commit ID] [--sources DIGEST]
//             [--work-dir DIR]
//
// --trace 0 measures the end-to-end metrics (untraced code only);
// --trace 1 measures the per-layer metrics from a traced replay and the
// single-thread stage replays. Both modes run the correctness gate. See
// METRICS.md for every metric, its unit, direction and layer.
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "fault/checkpoint.h"
#include "tensor/vec/vec.h"
#include "workloads.h"

using namespace perfbench;

namespace {

const char* build_type() { return PERFBENCH_BUILD_TYPE; }

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      o.trace = value == "1";
    } else if (flag == "--commit") {
      o.commit = value;
    } else if (flag == "--sources") {
      o.sources = value;
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// FNV-1a digest of a file's bytes (0 when it cannot be read).
std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::vector<char> buf(1 << 20);
  std::uint64_t h = 1469598103934665603ull;
  while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         in.gcount() > 0) {
    h = fnv1a(buf.data(), static_cast<std::size_t>(in.gcount()), h);
  }
  return h;
}

// Deterministic counters of one run, formatted exactly.
class Counters {
 public:
  void add(const std::string& name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    text_ += name + "=" + buf + "\n";
  }
  // Compares against the counters an earlier run of this workload and seed
  // left in `path`, or records them there on the first run.
  void check_ledger(const std::string& path, Report& report) const {
    std::ifstream in(path);
    if (!in) {
      std::ofstream(path) << text_;
      return;
    }
    std::ostringstream s;
    s << in.rdbuf();
    report.check(s.str() == text_,
                 "deterministic counters differ from an earlier run (" + path +
                     ")");
  }

 private:
  std::string text_;
};

Counters base_counters(const TrainOutcome& o, double tta, double recall,
                       double ckpt_bytes) {
  Counters c;
  const auto flat = o.final_model->to_flat();
  c.add("samples", static_cast<double>(o.samples));
  c.add("merges", static_cast<double>(o.result.merges));
  c.add("perturbed_merges", static_cast<double>(o.result.perturbed_merges));
  c.add("total_vtime", o.result.total_vtime);
  c.add("comm_seconds", o.result.comm_seconds);
  c.add("final_top1", o.result.final_top1());
  c.add("vtime_tta", tta);
  c.add("model_fnv", static_cast<double>(
                         fnv1a(flat.data(), flat.size() * sizeof(float)) >> 11));
  c.add("recall", recall);
  c.add("checkpoint_bytes", ckpt_bytes);
  return c;
}

// Ledger file for one workload, seed and source version: runs of the same
// code and seed must leave identical counters.
std::string ledger_path(const Options& o, const Workload& w,
                        const std::string& kind) {
  std::string id = o.sources;
  for (auto& ch : id) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return o.work_dir + "/" + kind + "-" + w.name + "-" +
         std::to_string(o.seed) + "-" + id + ".txt";
}

// Virtual seconds to the top-1 target; a run that never reaches it counts
// at its total virtual time (censored), so the median stays defined.
double tta_of(const TrainOutcome& o, double target) {
  return o.result.time_to_accuracy(target).value_or(o.result.total_vtime);
}

double file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n);
}

// Serving phase on the workload's own replicate-0 model, or on a model of
// the workload's serving shape, trained first, when it names one.
double serve_workload(const Workload& w, const Options& o,
                      const nn::Model& own, const data::XmlDataset& own_data,
                      bool traced, Report& report) {
  const double seconds = o.seconds * (1.0 - kTrainShare);
  if (!w.serve_model) {
    return serve_phase(own, own_data, o.seed, seconds, traced, report);
  }
  const auto dataset = data::generate_xml_dataset(w.serve_model->data);
  auto trainer =
      build_trainer(dataset, *w.serve_model, replicate_seed(o.seed, 0));
  const auto out = train_untraced(*trainer, *w.serve_model, "");
  return serve_phase(*out.final_model, dataset, o.seed, seconds, traced,
                     report);
}

// --- trace 0: end-to-end metrics -------------------------------------------

void run_end_to_end(const Workload& w, const Options& o, Report& report) {
  const auto& shape = w.train;
  const double train_budget = o.seconds * kTrainShare;
  const std::string ckpt = o.work_dir + "/" + w.name + "-untraced.hgck";

  // Replicates 0..R-1 each set up from scratch (data generation + trainer
  // construction). Later repetitions cycle the same datasets and trainer
  // seeds until the training budget is spent; each must reproduce its
  // replicate bit for bit.
  std::vector<double> setup_s, rate, tta, top1;
  std::vector<TrainOutcome> reps;
  const bool checkpoints = shape.checkpoint_every > 0;
  double ckpt_bytes = 0.0;
  std::uint64_t ckpt_digest = 0;
  const auto loop_start = Clock::now();
  for (std::size_t k = 0;
       k < kReplicates || seconds_since(loop_start) < train_budget; ++k) {
    const auto seed_k = replicate_seed(o.seed, k % kReplicates);
    const auto t0 = Clock::now();
    const auto data_k = replicate_dataset(shape, o.seed, k % kReplicates);
    auto trainer = build_trainer(data_k, shape, seed_k);
    const double built_s = seconds_since(t0);
    auto out = train_untraced(*trainer, shape, ckpt);
    report.attempt();
    if (k < kReplicates) {
      setup_s.push_back(built_s);
    }
    rate.push_back(static_cast<double>(out.samples) / out.loop_s);
    if (k == 0 && checkpoints) {
      ckpt_bytes = file_size_or_zero(ckpt);
      ckpt_digest = file_digest(ckpt);
    }
    if (k < kReplicates) {
      tta.push_back(tta_of(out, shape.tta_target));
      top1.push_back(out.result.final_top1());
      reps.push_back(std::move(out));
    } else {
      const auto diff = compare_outcomes(out, reps[k % kReplicates]);
      report.check(diff.empty(), "repeat of replicate " +
                                     std::to_string(k % kReplicates) +
                                     " differs: " + diff);
    }
  }
  std::filesystem::remove(ckpt);
  const auto dataset = replicate_dataset(shape, o.seed, 0);

  // Correctness gate: the traced replay of replicate 0 must reproduce the
  // untraced run bit for bit, checkpoint bytes included.
  {
    auto trainer = build_trainer(dataset, shape, replicate_seed(o.seed, 0));
    SpanLog log;
    const std::string ckpt_t = o.work_dir + "/" + w.name + "-traced.hgck";
    const auto replay = train_replay(*trainer, shape, ckpt_t, &log, nullptr);
    const auto diff = compare_outcomes(replay, reps[0]);
    report.check(diff.empty(), "traced replay differs from train(): " + diff);
    if (checkpoints) {
      report.check(file_digest(ckpt_t) == ckpt_digest,
                   "traced replay checkpoint differs from train()'s");
      std::filesystem::remove(ckpt_t);
    }
  }

  const double recall =
      serve_workload(w, o, *reps[0].final_model, dataset, false, report);

  base_counters(reps[0], tta[0], recall, ckpt_bytes)
      .check_ledger(ledger_path(o, w, "counters"), report);

  report.add("setup_s", median(setup_s), "s");
  report.add("train_samples_per_s", median(rate), "1/s");
  report.add("vtime_tta_s", median(tta), "vs");
  report.add("top1", median(top1), "fraction");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  const double failed = static_cast<double>(report.failed());
  report.add("ok_frac",
             1.0 - failed / static_cast<double>(report.attempted()),
             "fraction");
}

// --- trace 1: per-layer metrics --------------------------------------------

void run_traced(const Workload& w, const Options& o, Report& report) {
  const auto& shape = w.train;
  const std::string ckpt_u = o.work_dir + "/" + w.name + "-untraced.hgck";
  const std::string ckpt_t = o.work_dir + "/" + w.name + "-traced.hgck";
  const auto seed0 = replicate_seed(o.seed, 0);

  auto t0 = Clock::now();
  const auto dataset = replicate_dataset(shape, o.seed, 0);
  report.add("data.generate_s", seconds_since(t0), "s");

  // Untraced runs before and after the traced one, so the overhead ratio
  // is not biased by which run warmed the caches and the heap first.
  const auto run_untraced = [&] {
    auto trainer = build_trainer(dataset, shape, seed0);
    return train_untraced(*trainer, shape, ckpt_u);
  };
  const TrainOutcome untraced = run_untraced();
  SpanLog log;
  std::vector<CapturedBatch> batches;
  auto trainer = build_trainer(dataset, shape, seed0);
  auto traced = train_replay(*trainer, shape, ckpt_t, &log, &batches);
  const TrainOutcome again = run_untraced();
  const double untraced_s = 0.5 * (untraced.loop_s + again.loop_s);
  report.check(compare_outcomes(again, untraced).empty(),
               "repeated train() differs from the first");
  const auto diff = compare_outcomes(traced, untraced);
  report.check(diff.empty(), "traced replay differs from train(): " + diff);
  if (shape.checkpoint_every > 0) {
    report.check(file_digest(ckpt_t) == file_digest(ckpt_u),
                 "traced replay checkpoint differs from train()'s");
  } else {
    // No checkpoint inside this workload's loop: take one after it, so the
    // fault layer is measured without touching the loop's wall time.
    fault::TrainingCheckpoint ckpt;
    {
      SpanLog::Scope s(&log, "capture_checkpoint");
      ckpt = fault::capture_checkpoint(*trainer);
    }
    SpanLog::Scope s(&log, "save_checkpoint_file");
    fault::save_checkpoint_file(ckpt_t, ckpt);
  }
  const double tta = tta_of(untraced, shape.tta_target);

  const auto per = [&](const char* name) {
    const auto n = log.count(name);
    return n == 0 ? 0.0 : log.total_s(name) / static_cast<double>(n);
  };
  report.add("trace.wall_ratio", traced.loop_s / untraced_s, "x");
  report.add("data.next_batch_us", per("next_batch") * 1e6, "us");
  report.add("runtime.step_s", log.total_s("run_update_step"), "s");
  report.add("runtime.merge_s", log.total_s("merge_and_update"), "s");
  report.add("runtime.barrier_wait_s", log.total_s("math_barrier"), "s");
  report.add("runtime.eval_s", log.total_s("record_curve_point"), "s");
  report.add("runtime.steps",
             static_cast<double>(log.count("run_update_step")), "count");
  report.add("runtime.merges",
             static_cast<double>(log.count("merge_and_update")), "count");
  report.add("trainer.l2_gate_s", log.total_s("l2_norm_per_parameter"), "s");
  // Scheduler work: the mega-batch's own bookkeeping plus its decisions.
  report.add("trainer.sched_s",
             log.self_s("megabatch") + log.total_s("next_free_gpu") +
                 log.total_s("compute_merge_weights") +
                 log.total_s("scale_batch_sizes"),
             "s");
  report.add("comm.payload_bytes", traced.payload_bytes, "B");
  report.add("comm.wire_bytes", traced.wire_bytes, "B");
  report.add("comm.touched_rows", traced.touched_rows, "count");
  report.add("sim.allreduce_vs", traced.allreduce_vs, "vs");
  report.add("sim.comm_vs", traced.result.comm_seconds, "vs");
  report.add("sim.util_mean", traced.result.mean_utilization(), "fraction");
  report.add("sim.util_min", traced.result.min_utilization(), "fraction");
  report.add("fault.capture_s", per("capture_checkpoint"), "s");
  report.add("fault.save_s", per("save_checkpoint_file"), "s");
  const double ckpt_bytes = file_size_or_zero(ckpt_t);
  report.add("fault.checkpoint_bytes", ckpt_bytes, "B");
  const double ckpt_u_bytes =
      shape.checkpoint_every > 0 ? file_size_or_zero(ckpt_u) : 0.0;
  std::filesystem::remove(ckpt_u);
  std::filesystem::remove(ckpt_t);

  replay_layers(*untraced.final_model, batches, dataset,
                shape.cfg.eval_samples, report);
  batches.clear();
  batches.shrink_to_fit();

  const double recall =
      serve_workload(w, o, *untraced.final_model, dataset, true, report);

  base_counters(untraced, tta, recall, ckpt_u_bytes)
      .check_ledger(ledger_path(o, w, "counters"), report);
  Counters layer;
  layer.add("steps", static_cast<double>(log.count("run_update_step")));
  layer.add("payload_bytes", traced.payload_bytes);
  layer.add("wire_bytes", traced.wire_bytes);
  layer.add("touched_rows", traced.touched_rows);
  layer.add("allreduce_vs", traced.allreduce_vs);
  layer.add("checkpoint_bytes", ckpt_bytes);
  layer.check_ledger(ledger_path(o, w, "layer-counters"), report);

  log.write_chrome_trace(o.work_dir + "/trace-" + w.name + "-" +
                         std::to_string(o.seed) + ".json");
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  try {
    opts = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (std::strcmp(build_type(), "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: built as '%s'; timings are only taken from a "
                 "Release build\n",
                 build_type());
    return 2;
  }
  try {
    const auto workload = make_workload(opts.workload, opts.seed);
    std::filesystem::create_directories(opts.work_dir);
    std::printf(
        "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
        "\"seconds\": %g, \"trace\": %d, \"num_cpus\": %u, "
        "\"build_type\": \"%s\", \"isa\": \"%s\", \"commit\": \"%s\", "
        "\"sources\": \"%s\", \"clock\": \"steady_clock\"}}\n",
        json_escape(opts.workload).c_str(),
        static_cast<unsigned long long>(opts.seed), opts.seconds,
        opts.trace ? 1 : 0, std::thread::hardware_concurrency(), build_type(),
        vec::isa_name(vec::active_isa()), json_escape(opts.commit).c_str(),
        json_escape(opts.sources).c_str());
    std::fflush(stdout);

    Report report;
    if (opts.trace) {
      run_traced(workload, opts, report);
    } else {
      run_end_to_end(workload, opts, report);
    }
    std::printf("%s\n", report.result_json().c_str());
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
