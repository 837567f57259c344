// Algorithm 2: Normalized Model Merging.
//
// Computes per-replica merge weights at a mega-batch boundary:
//   - if every GPU performed the same number of updates, weights are
//     normalized by batch size (larger batches -> more accurate gradients),
//   - otherwise by the number of updates (prioritize fresher replicas).
// If all replicas are well-regularized (L2 norm per parameter below
// pert_thr), the most-updated replica's weight is perturbed up by (1+delta)
// and the least-updated down by (1-delta) — deliberately denormalizing the
// weights to push the merged model toward the freshest replica.
//
// The merged model then follows the momentum update rule:
//   w' = sum_i alpha_i w_i + gamma (w - w_prev);  w_prev <- w;  w <- w'.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/merge_codec.h"
#include "sparse/sparse_gradient.h"
#include "util/kernel_context.h"

namespace hetero::core {

/// How the replica weights are normalized (Algorithm 2 lines 1-3 and the
/// Section III-B discussion).
enum class MergeNormalization {
  /// The paper's default: by batch size when update counts are equal,
  /// otherwise by update count.
  kAuto,
  /// Always by update count.
  kUpdates,
  /// Always by batch size.
  kBatchSize,
  /// "An alternative for later stages is to normalize based on the product
  /// between the number of updates and the batch size" — i.e. by the number
  /// of samples each replica consumed.
  kUpdatesTimesBatch,
};

/// What happens to per-replica optimizer state (Adam/AdamW moments, Adagrad
/// accumulators, lazy row counters) at a merge boundary (DESIGN.md §11).
/// Replica WEIGHTS are always merged by Algorithm 2; this policy only
/// governs the optimizer state living beside them.
enum class MomentMerge {
  /// Algorithm-2-weighted average of the state across alive replicas,
  /// written back to every alive replica: touched-row union for segment 0
  /// under sparse_merge (untouched rows keep local state), full segments
  /// otherwise. Lazy row counters take the max across alive replicas.
  /// Ships num_slots extra model-sized fp32 payloads per merge.
  kAverage,
  /// Each replica keeps its local state across the merge. Free.
  kKeep,
  /// Zero all state at every merge boundary (fresh-start ablation). Free.
  kReset,
};

/// Flag / display name: "average", "keep", "reset".
std::string to_string(MomentMerge policy);

/// Parses a flag value; nullopt on anything but the three names.
std::optional<MomentMerge> parse_moment_merge(const std::string& text);

struct MergeInputs {
  std::vector<std::size_t> updates;      // u_i per GPU
  std::vector<std::size_t> batch_sizes;  // b_i per GPU
  std::vector<double> l2_per_param;      // ||w_i||_2 / |w| per GPU
  double pert_threshold = 0.1;
  double pert_delta = 0.1;
  bool enable_perturbation = true;
  MergeNormalization normalization = MergeNormalization::kAuto;
};

struct MergeWeights {
  std::vector<double> alpha;
  bool perturbed = false;
  bool by_updates = false;  // true when normalized by update counts
};

/// Lines 1-7 of Algorithm 2: normalization + perturbation.
MergeWeights compute_merge_weights(const MergeInputs& inputs);

/// Elastic membership (fault subsystem): expands weights computed by
/// compute_merge_weights over the alive subset into a full per-replica
/// vector — survivors keep their Algorithm-2 weight (already normalized
/// over the survivor inputs), dead replicas get exactly 0 and are excluded
/// from the merge accumulation. `alive_indices` lists the replica index of
/// each survivor weight, ascending.
std::vector<double> expand_alive_weights(
    std::span<const double> alive_weights,
    std::span<const std::size_t> alive_indices, std::size_t num_replicas);

/// Lines 8-9: momentum update of the global model, given the already
/// weighted-averaged replica combination `merged` (from the all-reduce).
///   w' = merged + gamma * (w - w_prev)
/// `global` and `previous_global` are updated in place.
void momentum_global_update(std::span<const float> merged,
                            std::span<float> global,
                            std::span<float> previous_global, double gamma);

// ---- Fused merge + momentum kernels (the runtime merge path) -------------
//
// These kernels fuse the all-reduce reduction with Algorithm 2 lines 8-9:
// the weighted average sum_i w_i x_i is accumulated in double precision
// (replica 0 initializes the accumulator, remaining replicas added in index
// order) and the momentum update is applied to the global/previous-global
// models in the same pass. The merged value only ever lives in a stack
// block — no model-sized accumulator, no staging flats, and no replica
// writes (replicas are refreshed by the broadcast that follows the merge).
//
// Determinism contract: every kernel evaluates the bit-exact same
// per-element expression in the same order —
//   merged = float(w_0 x_0[j] + w_1 x_1[j] + ... + w_{n-1} x_{n-1}[j])
//   momentum:  w = global[j]; global[j] = merged + gamma (w - prev[j]);
//              prev[j] = w
//   otherwise: prev[j] = global[j]; global[j] = merged
// Sharding/threading partitions the element space without reordering any
// per-element sum, so results are bit-identical at every shard and thread
// count; and because untouched rows hold x_i[j] bit-equal to global[j],
// the touched + untouched delta pair is bit-identical to the dense kernel.

struct MergeUpdate {
  std::span<const double> weights;  // alpha_i — NOT renormalized (Σ may ≠ 1)
  double gamma = 0.0;               // momentum factor
  bool momentum = true;             // false: plain assignment update
};

/// Fused dense merge of one parameter segment. Each replica pointer refers
/// to `len` floats; `global` and `prev` are the matching global-model and
/// previous-global segments. The segment is split into at least
/// `min_shards` shards (mirroring the paper's multi-stream partitions; the
/// runtime passes the all-reduce stream count) and sharded across `ctx`.
void merge_segment(std::span<const float* const> replicas, std::size_t len,
                   const MergeUpdate& u, std::span<float> global,
                   std::span<float> prev, std::size_t min_shards,
                   const kernels::Context& ctx);

/// Fused merge restricted to `rows` of a row-major (num_rows x cols)
/// segment: the delta path's reduced+rebroadcast set. `rows` must be
/// deduplicated (sorted recommended for locality); replicas/global/prev
/// point at the full segment base.
void merge_touched_rows(std::span<const float* const> replicas,
                        std::span<const std::uint32_t> rows, std::size_t cols,
                        const MergeUpdate& u, float* global, float* prev,
                        const kernels::Context& ctx);

// ---- Merge plan and the quantized merge (DESIGN.md §5c, §10) -------------

/// Scale-group width of the dense regions: int8 payloads carry one fp32
/// scale per kQuantGroupCols-element block (W1 rows group by row in delta
/// plans instead).
inline constexpr std::size_t kQuantGroupCols = 512;

/// The region one merge ships, as a table of quantization scale groups
/// (comm::CodeGroup) packed in table order. A dense plan holds 512-blocks
/// of every segment. A delta plan (sparse_merge) holds one group per row of
/// the cross-replica union of touched input-layer rows (segment 0 by the
/// Model contract), ascending, then 512-blocks of segments 1... The group
/// boundaries are the int8 scale groups, so they are part of the merged
/// result; elems() and num_groups() are what the merge bills.
class MergePlan {
 public:
  MergePlan() = default;
  /// The dense plan of a model with these segments, whose segment 0 is
  /// input_rows x input_cols.
  MergePlan(std::span<const std::span<float>> segments,
            std::size_t input_rows, std::size_t input_cols);

  /// Rebuilds as the delta plan over the union of touched[g], g in members.
  const MergePlan& build_delta(std::span<const sparse::RowSet> touched,
                               std::span<const std::size_t> members);

  bool delta() const { return delta_; }
  std::span<const comm::CodeGroup> groups() const { return groups_; }
  std::size_t num_groups() const { return groups_.size(); }
  std::size_t elems() const { return elems_; }
  /// Delta plans: the touched-row union, as a set and sorted.
  const sparse::RowSet& touched() const { return union_; }
  std::span<const std::uint32_t> rows() const { return rows_; }
  /// First segment the plan covers whole (1 for delta plans, else 0).
  std::size_t first_dense() const { return delta_ ? 1 : 0; }
  std::size_t input_rows() const { return input_rows_; }
  std::size_t input_cols() const { return input_cols_; }

 private:
  void add_dense_segments(std::size_t first);

  std::vector<std::size_t> seg_size_;
  std::vector<std::size_t> seg_flat_;  // flat model offset of each segment
  std::size_t input_rows_ = 0;
  std::size_t input_cols_ = 0;
  bool delta_ = false;
  sparse::RowSet union_;
  std::vector<std::uint32_t> rows_;
  std::vector<comm::CodeGroup> groups_;
  std::size_t elems_ = 0;
};

/// The quantized counterpart of the fused kernels, over a plan's groups:
///   merged = wsum * global[j] + sum_i w_i * dequant(codes_i[j])
/// with the momentum/plain finalize; codec member i (encoded over
/// plan.groups()) supplies replica i's codes. Compressed merges ship
/// per-replica deltas d_i = replica_i - global (residual folded in), so
/// global initializes the accumulator once with the summed weight and each
/// replica's dequantized code adds in index order. dequant is the
/// single-rounded float code*scale, so the result is bit-identical on every
/// ISA and at every thread count. fp16/int8 results intentionally differ
/// from fp32: the fp32 merge never goes through this kernel and stays the
/// bit-exact oracle.
void merge_quantized(const MergePlan& plan, const comm::MergeCodec& codec,
                     double wsum, const MergeUpdate& u,
                     std::span<const std::span<float>> global,
                     std::span<const std::span<float>> prev,
                     const kernels::Context& ctx);

/// Closed-form complement of merge_touched_rows: rows NOT in `touched` are
/// bit-identical across replicas (untouched since the last broadcast), so
/// the reduction needs no replica reads — it re-accumulates
/// sum_i w_i global[j] in the same fixed order, which is bit-identical to
/// the dense kernel reading the n equal replica copies.
void merge_untouched_rows(const sparse::RowSet& touched, std::size_t num_rows,
                          std::size_t cols, const MergeUpdate& u,
                          std::span<float> global, std::span<float> prev,
                          const kernels::Context& ctx);

}  // namespace hetero::core
