#include "comm/merge_codec.h"

#include <algorithm>
#include <atomic>

#include "tensor/vec/vec.h"

namespace hetero::comm {

MergeCodec::MergeCodec(MergePrecision precision, std::size_t num_replicas,
                       std::size_t params)
    : precision_(precision) {
  if (!compressed()) return;
  residual_.assign(num_replicas, std::vector<float>(params, 0.0f));
  q16_.resize(num_replicas);
  q8_.resize(num_replicas);
  scales_.resize(num_replicas);
}

std::span<float> MergeCodec::residual(std::size_t g) {
  return residual_.empty() ? std::span<float>{} : std::span(residual_[g]);
}

std::span<const float> MergeCodec::residual(std::size_t g) const {
  return residual_.empty() ? std::span<const float>{}
                           : std::span(residual_[g]);
}

void MergeCodec::reset(std::size_t g) {
  if (!residual_.empty()) {
    std::fill(residual_[g].begin(), residual_[g].end(), 0.0f);
  }
}

template <class Fn>
void MergeCodec::for_groups(const kernels::Context& ctx, Fn&& fn) const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    kernels::parallel_for_ranges(ctx, groups_.size(), elems_,
                                 [&](std::size_t k0, std::size_t k1) {
                                   for (std::size_t k = k0; k < k1; ++k) {
                                     fn(i, k);
                                   }
                                 });
  }
}

void MergeCodec::encode(
    std::span<const std::size_t> members,
    std::span<const std::vector<std::span<float>>> member_segs,
    std::span<const std::span<float>> global_segs,
    std::span<const CodeGroup> groups, std::size_t elems,
    const kernels::Context& ctx) {
  members_.assign(members.begin(), members.end());
  groups_ = groups;
  elems_ = elems;
  const auto& vk = vec::kernels();

  // Pass A — error feedback over the region, against the pre-merge global.
  for_groups(ctx, [&](std::size_t i, std::size_t k) {
    const auto& q = groups[k];
    vk.ef_delta(member_segs[i][q.seg].data() + q.off,
                global_segs[q.seg].data() + q.off,
                residual_[members_[i]].data() + q.flat, q.len);
  });

  // Pass B — quantize from the residuals; they stay untouched until commit,
  // which is what makes the fp16 retry safe.
  if (precision_ == MergePrecision::kInt8) {
    for (const std::size_t g : members_) {
      q8_[g].resize(elems);
      scales_[g].resize(groups.size());
    }
    for_groups(ctx, [&](std::size_t i, std::size_t k) {
      const auto& q = groups[k];
      const std::size_t g = members_[i];
      scales_[g][k] = encode_i8_group(residual_[g].data() + q.flat,
                                      q8_[g].data() + q.dst, q.len);
    });
    return;
  }
  for (const std::size_t g : members_) q16_[g].resize(elems);
  // Only whether the overflow count is nonzero decides a retry, so the
  // decision is the same on every ISA and at every thread count.
  bool any_overflow = false;
  for (;;) {
    const float s = guard_.scale;
    inv_scale_ = 1.0f / s;
    std::atomic<std::size_t> over{0};
    for_groups(ctx, [&](std::size_t i, std::size_t k) {
      const auto& q = groups[k];
      const std::size_t g = members_[i];
      if (vk.quant_fp16(residual_[g].data() + q.flat, q16_[g].data() + q.dst,
                        s, q.len) != 0) {
        over.fetch_add(1, std::memory_order_relaxed);
      }
    });
    if (over.load(std::memory_order_relaxed) == 0) break;
    any_overflow = true;
    guard_.on_overflow();
    if (guard_.scale == s) break;  // at the floor: ship as-is
  }
  if (!any_overflow) guard_.on_clean_merge();
}

void MergeCodec::accumulate(double* acc, std::size_t i, std::size_t k,
                            std::size_t o, double w, std::size_t len) const {
  const std::size_t g = members_[i];
  const std::size_t at = groups_[k].dst + o;
  const auto& vk = vec::kernels();
  if (precision_ == MergePrecision::kInt8) {
    vk.merge_accum_i8(acc, q8_[g].data() + at, w, scales_[g][k], len);
  } else {
    vk.merge_accum_fp16(acc, q16_[g].data() + at, w, inv_scale_, len);
  }
}

void MergeCodec::commit(const kernels::Context& ctx) {
  const auto& vk = vec::kernels();
  for_groups(ctx, [&](std::size_t i, std::size_t k) {
    const auto& q = groups_[k];
    const std::size_t g = members_[i];
    float* res = residual_[g].data() + q.flat;
    if (precision_ == MergePrecision::kInt8) {
      vk.residual_i8(q8_[g].data() + q.dst, scales_[g][k], res, q.len);
    } else {
      vk.residual_fp16(q16_[g].data() + q.dst, inv_scale_, res, q.len);
    }
  });
}

}  // namespace hetero::comm
