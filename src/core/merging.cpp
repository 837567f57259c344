#include "core/merging.h"

#include <algorithm>
#include <cassert>

#include "tensor/vec/vec.h"

namespace hetero::core {

std::string to_string(MomentMerge policy) {
  switch (policy) {
    case MomentMerge::kAverage:
      return "average";
    case MomentMerge::kKeep:
      return "keep";
    case MomentMerge::kReset:
      return "reset";
  }
  return "average";
}

std::optional<MomentMerge> parse_moment_merge(const std::string& text) {
  if (text == "average") return MomentMerge::kAverage;
  if (text == "keep") return MomentMerge::kKeep;
  if (text == "reset") return MomentMerge::kReset;
  return std::nullopt;
}

MergeWeights compute_merge_weights(const MergeInputs& inputs) {
  const std::size_t n = inputs.updates.size();
  assert(inputs.batch_sizes.size() == n);
  assert(inputs.l2_per_param.size() == n);
  MergeWeights out;
  out.alpha.resize(n, 0.0);
  if (n == 0) return out;

  const bool equal_updates =
      std::all_of(inputs.updates.begin(), inputs.updates.end(),
                  [&](std::size_t u) { return u == inputs.updates[0]; });

  // Pick the raw (unnormalized) score per replica.
  const auto score = [&](std::size_t i) -> double {
    switch (inputs.normalization) {
      case MergeNormalization::kAuto:
        // Algorithm 2 lines 2-3: batch size on equal updates, else updates.
        return equal_updates
                   ? static_cast<double>(inputs.batch_sizes[i])
                   : static_cast<double>(inputs.updates[i]);
      case MergeNormalization::kUpdates:
        return static_cast<double>(inputs.updates[i]);
      case MergeNormalization::kBatchSize:
        return static_cast<double>(inputs.batch_sizes[i]);
      case MergeNormalization::kUpdatesTimesBatch:
        return static_cast<double>(inputs.updates[i]) *
               static_cast<double>(inputs.batch_sizes[i]);
    }
    return 0.0;
  };
  out.by_updates = inputs.normalization == MergeNormalization::kUpdates ||
                   (inputs.normalization == MergeNormalization::kAuto &&
                    !equal_updates);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += score(i);
  for (std::size_t i = 0; i < n; ++i) out.alpha[i] = score(i) / total;

  // Perturbation (lines 4-7): only when every replica is well-regularized,
  // so denormalized weights cannot amplify skewed parameters.
  if (inputs.enable_perturbation && n > 1) {
    const bool all_regularized =
        std::all_of(inputs.l2_per_param.begin(), inputs.l2_per_param.end(),
                    [&](double v) { return v < inputs.pert_threshold; });
    if (all_regularized) {
      std::size_t r = 0, s = 0;
      for (std::size_t i = 1; i < n; ++i) {
        if (inputs.updates[i] > inputs.updates[r]) r = i;
        if (inputs.updates[i] < inputs.updates[s]) s = i;
      }
      out.alpha[r] *= 1.0 + inputs.pert_delta;
      out.alpha[s] *= 1.0 - inputs.pert_delta;
      out.perturbed = true;
    }
  }
  return out;
}

void momentum_global_update(std::span<const float> merged,
                            std::span<float> global,
                            std::span<float> previous_global, double gamma) {
  assert(merged.size() == global.size());
  assert(global.size() == previous_global.size());
  vec::kernels().momentum_update(merged.data(), global.data(),
                                 previous_global.data(),
                                 static_cast<float>(gamma), merged.size());
}

namespace {

// Stack accumulator block: the merged value never touches memory outside
// this block, which is what removes the model-sized double buffer (and its
// traffic) from the merge path.
constexpr std::size_t kMergeBlock = 512;

// Writes a merged block into global/prev. The momentum finalize mirrors
// momentum_global_update exactly (same float expression, same order) —
// keep the two in sync or the determinism contract breaks.
inline void finalize_block(double* acc, float* g, float* p,
                           const MergeUpdate& u, std::size_t len,
                           const vec::VecKernels& vk) {
  if (u.momentum) {
    vk.merge_finalize_momentum(acc, g, p, static_cast<float>(u.gamma), len);
  } else {
    vk.merge_finalize_plain(acc, g, p, len);
  }
}

// Fused reduce + update of elements [off, off+len) of one segment, where
// each source pointer i yields x_i[j] for the weighted sum. The vec merge
// kernels are element-wise in double, so the block stays bit-identical to
// the element-at-a-time reference on every ISA.
inline void merge_block(std::span<const float* const> sources,
                        std::size_t off, std::size_t len,
                        const MergeUpdate& u, float* global, float* prev,
                        const vec::VecKernels& vk) {
  double acc[kMergeBlock];
  vk.merge_init(acc, sources[0] + off, u.weights[0], len);
  for (std::size_t i = 1; i < sources.size(); ++i) {
    vk.merge_accum(acc, sources[i] + off, u.weights[i], len);
  }
  finalize_block(acc, global + off, prev + off, u, len, vk);
}

inline void merge_range(std::span<const float* const> sources,
                        const MergeUpdate& u, float* global, float* prev,
                        std::size_t begin, std::size_t end,
                        const vec::VecKernels& vk) {
  for (std::size_t o = begin; o < end; o += kMergeBlock) {
    merge_block(sources, o, std::min(kMergeBlock, end - o), u, global, prev,
                vk);
  }
}

}  // namespace

void merge_segment(std::span<const float* const> replicas, std::size_t len,
                   const MergeUpdate& u, std::span<float> global,
                   std::span<float> prev, std::size_t min_shards,
                   const kernels::Context& ctx) {
  assert(replicas.size() == u.weights.size());
  assert(global.size() == len);
  assert(prev.size() == len);
  if (len == 0) return;
  const std::size_t work = len * replicas.size();
  std::size_t shards = std::max<std::size_t>(1, min_shards);
  if (ctx.should_parallelize(work)) {
    shards = std::max(shards, ctx.workers_for(len));
  }
  shards = std::min(shards, len);
  const auto& vk = vec::kernels();
  kernels::parallel_for_ranges(
      ctx, shards, work, [&](std::size_t s0, std::size_t s1) {
        for (std::size_t s = s0; s < s1; ++s) {
          merge_range(replicas, u, global.data(), prev.data(),
                      len * s / shards, len * (s + 1) / shards, vk);
        }
      });
}

void merge_touched_rows(std::span<const float* const> replicas,
                        std::span<const std::uint32_t> rows, std::size_t cols,
                        const MergeUpdate& u, float* global, float* prev,
                        const kernels::Context& ctx) {
  assert(replicas.size() == u.weights.size());
  if (rows.empty() || cols == 0) return;
  const std::size_t work = rows.size() * cols * replicas.size();
  const auto& vk = vec::kernels();
  kernels::parallel_for_ranges(
      ctx, rows.size(), work, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          const std::size_t base = static_cast<std::size_t>(rows[r]) * cols;
          for (std::size_t o = 0; o < cols; o += kMergeBlock) {
            merge_block(replicas, base + o,
                        std::min(kMergeBlock, cols - o), u, global, prev, vk);
          }
        }
      });
}

MergePlan::MergePlan(std::span<const std::span<float>> segments,
                     std::size_t input_rows, std::size_t input_cols)
    : input_rows_(input_rows), input_cols_(input_cols) {
  std::size_t flat = 0;
  for (const auto seg : segments) {
    seg_size_.push_back(seg.size());
    seg_flat_.push_back(flat);
    flat += seg.size();
  }
  add_dense_segments(0);
}

void MergePlan::add_dense_segments(std::size_t first) {
  for (std::size_t s = first; s < seg_size_.size(); ++s) {
    for (std::size_t o = 0; o < seg_size_[s]; o += kQuantGroupCols) {
      const std::size_t len = std::min(kQuantGroupCols, seg_size_[s] - o);
      groups_.push_back({s, o, seg_flat_[s] + o, elems_, len});
      elems_ += len;
    }
  }
}

const MergePlan& MergePlan::build_delta(
    std::span<const sparse::RowSet> touched,
    std::span<const std::size_t> members) {
  delta_ = true;
  if (union_.logical_rows() != input_rows_) union_.reset(input_rows_);
  union_.clear();
  for (const std::size_t g : members) union_.add(touched[g]);
  union_.sorted_rows(rows_);
  groups_.clear();
  elems_ = 0;
  for (const std::uint32_t r : rows_) {
    const std::size_t off = static_cast<std::size_t>(r) * input_cols_;
    groups_.push_back({0, off, seg_flat_[0] + off, elems_, input_cols_});
    elems_ += input_cols_;
  }
  add_dense_segments(1);
  return *this;
}

void merge_quantized(const MergePlan& plan, const comm::MergeCodec& codec,
                     double wsum, const MergeUpdate& u,
                     std::span<const std::span<float>> global,
                     std::span<const std::span<float>> prev,
                     const kernels::Context& ctx) {
  const auto groups = plan.groups();
  const std::size_t n = u.weights.size();
  const auto& vk = vec::kernels();
  kernels::parallel_for_ranges(
      ctx, groups.size(), plan.elems() * n,
      [&](std::size_t k0, std::size_t k1) {
        double acc[kMergeBlock];
        for (std::size_t k = k0; k < k1; ++k) {
          const auto& q = groups[k];
          float* g = global[q.seg].data() + q.off;
          float* p = prev[q.seg].data() + q.off;
          for (std::size_t o = 0; o < q.len; o += kMergeBlock) {
            const std::size_t len = std::min(kMergeBlock, q.len - o);
            vk.merge_init(acc, g + o, wsum, len);
            for (std::size_t i = 0; i < n; ++i) {
              codec.accumulate(acc, i, k, o, u.weights[i], len);
            }
            finalize_block(acc, g + o, p + o, u, len, vk);
          }
        }
      });
}

void merge_untouched_rows(const sparse::RowSet& touched, std::size_t num_rows,
                          std::size_t cols, const MergeUpdate& u,
                          std::span<float> global, std::span<float> prev,
                          const kernels::Context& ctx) {
  assert(global.size() == num_rows * cols);
  assert(prev.size() == global.size());
  if (num_rows == 0 || cols == 0) return;
  const std::size_t n = u.weights.size();
  // Every "replica" source aliases the global base: untouched rows are
  // bit-equal to global since the last broadcast, so feeding global through
  // the same merge_block reproduces the dense kernel's n-term sum without
  // touching any replica memory. merge_block reads the whole block into the
  // accumulator before the finalize loop writes it, so the alias is safe.
  const std::vector<const float*> sources(n, global.data());
  const std::size_t untouched =
      num_rows - std::min(num_rows, touched.size());
  const std::size_t work = untouched * cols * n;
  const auto& vk = vec::kernels();
  kernels::parallel_for_ranges(
      ctx, num_rows, work, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          if (touched.contains(static_cast<std::uint32_t>(r))) continue;
          const std::size_t base = r * cols;
          for (std::size_t o = 0; o < cols; o += kMergeBlock) {
            merge_block(sources, base + o,
                        std::min(kMergeBlock, cols - o), u, global.data(),
                        prev.data(), vk);
          }
        }
      });
}

std::vector<double> expand_alive_weights(
    std::span<const double> alive_weights,
    std::span<const std::size_t> alive_indices, std::size_t num_replicas) {
  assert(alive_weights.size() == alive_indices.size());
  std::vector<double> full(num_replicas, 0.0);
  for (std::size_t i = 0; i < alive_indices.size(); ++i) {
    assert(alive_indices[i] < num_replicas);
    full[alive_indices[i]] = alive_weights[i];
  }
  return full;
}

}  // namespace hetero::core
