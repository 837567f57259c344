// Error-feedback codec of the compressed merge (DESIGN.md §10): the state
// and passes that turn each replica's merge delta into fp16/int8 codes and
// carry the quantization error to the next merge.
//
// A merge region is a table of CodeGroups (core::MergePlan builds it): one
// int8 scale group each, addressed by model segment (replica and global
// reads), by flat model offset (the residuals) and by packed code offset
// (the code/scale scratch). Per merge the runtime calls
//   encode  — pass A, r += replica - global over the region, then pass B,
//             quantize r (fp16: the joint overflow-retry loop);
//   accumulate, once per group and member — pass C's source, feeding the
//             fused dequant-reduce;
//   commit  — pass D, r -= dequant(codes), leaving exactly the error.
// The residuals keep the flat model layout, so rows outside a sparse
// merge's region keep their pending correction for a later merge, and
// checkpoints hold them byte for byte. Every pass is element-wise over
// whole groups and partitions groups across workers, so the codes, the
// scales and the residuals are bit-identical at any thread count and on
// every vec kernel table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/quant.h"
#include "util/kernel_context.h"

namespace hetero::comm {

/// One quantization scale group of a merge region.
struct CodeGroup {
  std::size_t seg = 0;   // model segment
  std::size_t off = 0;   // offset within segment `seg`
  std::size_t flat = 0;  // offset in the flat model layout (residuals)
  std::size_t dst = 0;   // packed code offset
  std::size_t len = 0;
};

class MergeCodec {
 public:
  /// `params` is the flat model size. An fp32 codec holds no residuals and
  /// is never encoded: fp32 merges reduce the replicas directly.
  MergeCodec(MergePrecision precision, std::size_t num_replicas,
             std::size_t params);

  bool compressed() const { return precision_ != MergePrecision::kFp32; }

  /// Replica g's error-feedback residual (flat model layout; empty at
  /// fp32). Exposed for checkpointing and tests.
  std::span<float> residual(std::size_t g);
  std::span<const float> residual(std::size_t g) const;

  /// fp16 dynamic loss scale (checkpointed with the residuals).
  LossScaleGuard& guard() { return guard_; }
  const LossScaleGuard& guard() const { return guard_; }

  /// Clears replica g's residual (it crashed or rejoined: the deltas it
  /// described no longer exist).
  void reset(std::size_t g);

  /// Passes A+B for the replicas `members` (ascending) over `groups`, whose
  /// packed codes span [0, elems). member_segs[i] are member i's segment
  /// views, global_segs the pre-merge global model's. fp16 requantizes
  /// every member at half the loss scale while any element overflows, down
  /// to LossScaleGuard::kMinScale; the scale may grow only after the codes
  /// are cut, so growth changes the next merge, never this one. `groups`
  /// must stay valid until commit().
  void encode(std::span<const std::size_t> members,
              std::span<const std::vector<std::span<float>>> member_segs,
              std::span<const std::span<float>> global_segs,
              std::span<const CodeGroup> groups, std::size_t elems,
              const kernels::Context& ctx);

  /// Pass C source: acc[j] += w * dequant(code) for member i (index into
  /// the encoded members) over group k's codes [dst + o, dst + o + len).
  void accumulate(double* acc, std::size_t i, std::size_t k, std::size_t o,
                  double w, std::size_t len) const;

  /// Pass D: every encoded member's residual loses what its codes carry.
  void commit(const kernels::Context& ctx);

  /// Codes and scales of replica g from the last encode (tests).
  std::span<const std::uint16_t> fp16_codes(std::size_t g) const {
    return q16_[g];
  }
  std::span<const std::int8_t> i8_codes(std::size_t g) const {
    return q8_[g];
  }
  std::span<const float> scales(std::size_t g) const { return scales_[g]; }
  /// fp16: 1 / the loss scale the last encode's codes were cut with.
  float dequant_scale() const { return inv_scale_; }

 private:
  // Runs fn(i, k) for every encoded member i and group k, one member at a
  // time, groups split across ctx's workers.
  template <class Fn>
  void for_groups(const kernels::Context& ctx, Fn&& fn) const;

  MergePrecision precision_;
  LossScaleGuard guard_;
  std::vector<std::vector<float>> residual_;
  std::vector<std::vector<std::uint16_t>> q16_;
  std::vector<std::vector<std::int8_t>> q8_;
  std::vector<std::vector<float>> scales_;
  // The last encode's region.
  std::vector<std::size_t> members_;
  std::span<const CodeGroup> groups_;
  std::size_t elems_ = 0;
  float inv_scale_ = 1.0f;
};

}  // namespace hetero::comm
