// comm::MergeCodec on its own: the error-feedback passes of the compressed
// merge over hand-built group tables, with no runtime, model or trainer.
#include "comm/merge_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "comm/quant.h"
#include "tensor/vec/vec.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hetero::comm {
namespace {

// One-segment "models": replica i holds x[i], the global model holds g.
// Groups tile the segment in `cols`-wide blocks, flat == off == dst.
struct Toy {
  std::vector<std::vector<float>> x;
  std::vector<float> g;
  std::vector<CodeGroup> groups;
  std::vector<std::size_t> members;

  Toy(std::vector<std::vector<float>> replicas, std::size_t cols)
      : x(std::move(replicas)), g(x[0].size(), 0.0f), members(x.size()) {
    std::iota(members.begin(), members.end(), std::size_t{0});
    for (std::size_t o = 0; o < g.size(); o += cols) {
      groups.push_back({0, o, o, o, std::min(cols, g.size() - o)});
    }
  }

  void encode(MergeCodec& codec, const kernels::Context& ctx = {}) {
    std::vector<std::vector<std::span<float>>> segs;
    for (auto& r : x) segs.push_back({std::span<float>(r)});
    const std::vector<std::span<float>> global = {std::span<float>(g)};
    codec.encode(members, segs, global, groups, g.size(), ctx);
  }
};

std::vector<float> random_values(std::size_t n, double amp,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& e : v) e = static_cast<float>(rng.uniform(-amp, amp));
  return v;
}

std::vector<float> as_vector(std::span<const float> s) {
  return {s.begin(), s.end()};
}

TEST(MergeCodec, Fp32CodecHoldsNoState) {
  MergeCodec codec(MergePrecision::kFp32, 3, 100);
  EXPECT_FALSE(codec.compressed());
  EXPECT_TRUE(codec.residual(1).empty());
  codec.reset(1);  // a no-op, not a crash
}

TEST(MergeCodec, Fp16OverflowHalvesScaleForEveryMemberUntilClean) {
  // Replica 1 overflows at 1024 (100 * 1024 > 65504) and fits at 512.
  // Replica 0 alone would fit at 1024, but the retry is joint: both are cut
  // at 512.
  Toy toy({random_values(700, 1.0, 1), random_values(700, 1.0, 2)}, 512);
  toy.x[1][600] = 100.0f;
  MergeCodec codec(MergePrecision::kFp16, 2, 700);
  toy.encode(codec);
  EXPECT_EQ(codec.guard().scale, 512.0f);
  EXPECT_EQ(codec.guard().good_streak, 0u);
  EXPECT_EQ(codec.dequant_scale(), 1.0f / 512.0f);
  std::vector<std::uint16_t> want(700);
  EXPECT_EQ(vec::kernels().quant_fp16(toy.x[0].data(), want.data(), 512.0f,
                                      700),
            0u);
  EXPECT_EQ(std::vector<std::uint16_t>(codec.fp16_codes(0).begin(),
                                       codec.fp16_codes(0).end()),
            want);
}

TEST(MergeCodec, Fp16OverflowStopsAtMinScale) {
  Toy toy({random_values(64, 1.0, 3)}, 512);
  toy.x[0][5] = 1e6f;  // overflows fp16 even at scale 1
  MergeCodec codec(MergePrecision::kFp16, 1, 64);
  toy.encode(codec);
  EXPECT_EQ(codec.guard().scale, LossScaleGuard::kMinScale);
  EXPECT_EQ(codec.dequant_scale(), 1.0f / LossScaleGuard::kMinScale);
}

TEST(MergeCodec, Fp16GrowthChangesOnlyTheNextMerge) {
  Toy toy({random_values(300, 0.5, 4), random_values(300, 0.5, 5)}, 512);
  MergeCodec plain(MergePrecision::kFp16, 2, 300);
  MergeCodec primed(MergePrecision::kFp16, 2, 300);
  primed.guard().good_streak = LossScaleGuard::kGrowEvery - 1;
  toy.encode(plain);
  toy.encode(primed);
  // This merge's codes and dequant scale are the pre-growth ones...
  for (std::size_t g = 0; g < 2; ++g) {
    EXPECT_TRUE(
        std::ranges::equal(primed.fp16_codes(g), plain.fp16_codes(g)));
  }
  EXPECT_EQ(primed.dequant_scale(), plain.dequant_scale());
  EXPECT_EQ(plain.guard().scale, 1024.0f);
  // ...and the grown scale cuts the next merge's codes.
  EXPECT_EQ(primed.guard().scale, 2048.0f);
  primed.commit({});
  toy.encode(primed);
  EXPECT_EQ(primed.dequant_scale(), 1.0f / 2048.0f);
}

TEST(MergeCodec, Int8ZeroAndNonFiniteGroupsShipNothing) {
  // Groups of 8: all zero, one +inf, ordinary.
  std::vector<float> x(24, 0.0f);
  x[9] = std::numeric_limits<float>::infinity();
  for (std::size_t j = 16; j < 24; ++j) x[j] = 0.25f * static_cast<float>(j);
  Toy toy({x}, 8);
  MergeCodec codec(MergePrecision::kInt8, 1, 24);
  toy.encode(codec);
  const auto scales = codec.scales(0);
  const auto codes = codec.i8_codes(0);
  ASSERT_EQ(scales.size(), 3u);
  EXPECT_EQ(scales[0], 0.0f);
  EXPECT_EQ(scales[1], 0.0f);
  EXPECT_EQ(scales[2], 5.75f / 127.0f);
  for (std::size_t j = 0; j < 8; ++j) EXPECT_EQ(codes[j], 0) << j;
  // The +inf element's code is whatever inf * 0 clamps to; with scale 0 the
  // whole group dequantizes to zero, so the merge receives nothing from it.
  std::vector<float> deq(8);
  vec::kernels().dequant_i8(codes.data() + 8, deq.data(), scales[1], 8);
  for (const float v : deq) EXPECT_EQ(v, 0.0f);
}

TEST(MergeCodec, CommitLeavesExactlyTheQuantizationError) {
  for (const auto precision : {MergePrecision::kFp16, MergePrecision::kInt8}) {
    SCOPED_TRACE(precision_name(precision));
    Toy toy({random_values(1100, 0.3, 6), random_values(1100, 0.3, 7)}, 512);
    toy.g = random_values(1100, 0.3, 8);
    MergeCodec codec(precision, 2, 1100);
    toy.encode(codec);
    codec.commit({});
    const auto& vk = vec::kernels();
    for (std::size_t r = 0; r < 2; ++r) {
      std::vector<float> deq(1100);
      for (std::size_t k = 0; k < toy.groups.size(); ++k) {
        const auto& q = toy.groups[k];
        if (precision == MergePrecision::kInt8) {
          vk.dequant_i8(codec.i8_codes(r).data() + q.dst, deq.data() + q.dst,
                        codec.scales(r)[k], q.len);
        } else {
          vk.dequant_fp16(codec.fp16_codes(r).data() + q.dst,
                          deq.data() + q.dst, codec.dequant_scale(), q.len);
        }
      }
      std::vector<float> want(1100);
      for (std::size_t j = 0; j < 1100; ++j) {
        want[j] = (toy.x[r][j] - toy.g[j]) - deq[j];
      }
      EXPECT_EQ(as_vector(codec.residual(r)), want) << "replica " << r;
    }
  }
}

TEST(MergeCodec, ResetClearsOnlyThatReplica) {
  Toy toy({random_values(200, 1.0, 9), random_values(200, 1.0, 10)}, 64);
  MergeCodec codec(MergePrecision::kInt8, 2, 200);
  toy.encode(codec);
  codec.commit({});
  const auto kept = as_vector(codec.residual(0));
  ASSERT_NE(kept, std::vector<float>(200, 0.0f));
  codec.reset(1);
  EXPECT_EQ(as_vector(codec.residual(1)), std::vector<float>(200, 0.0f));
  EXPECT_EQ(as_vector(codec.residual(0)), kept);
}

TEST(MergeCodec, Int8MatchesEncodeI8OnUniformGroups) {
  // With a zero global and residual, the codec quantizes the replica itself
  // in 512-blocks — exactly encode_i8's payload over the same values.
  const auto x = random_values(1500, 2.0, 11);
  Toy toy({x}, 512);
  MergeCodec codec(MergePrecision::kInt8, 1, 1500);
  toy.encode(codec);
  std::vector<std::uint8_t> wire;
  encode_i8(x, 512, wire);
  QuantizedPayload p;
  decode_payload(wire, p);
  EXPECT_EQ(p.scales, std::vector<float>(codec.scales(0).begin(),
                                         codec.scales(0).end()));
  EXPECT_EQ(p.i8, std::vector<std::int8_t>(codec.i8_codes(0).begin(),
                                           codec.i8_codes(0).end()));
}

TEST(MergeCodec, BitIdenticalAtAnyThreadCount) {
  for (const auto precision : {MergePrecision::kFp16, MergePrecision::kInt8}) {
    SCOPED_TRACE(precision_name(precision));
    const auto run = [&](std::size_t threads) {
      util::ThreadPool pool(threads);
      kernels::Context ctx{threads > 1 ? &pool : nullptr, threads};
      ctx.serial_grain = 1;
      Toy toy({random_values(5000, 1.0, 12), random_values(5000, 1.0, 13),
               random_values(5000, 1.0, 14)},
              100);
      MergeCodec codec(precision, 3, 5000);
      for (int merge = 0; merge < 2; ++merge) {
        toy.encode(codec, ctx);
        codec.commit(ctx);
      }
      std::vector<float> out;
      for (std::size_t r = 0; r < 3; ++r) {
        const auto res = codec.residual(r);
        out.insert(out.end(), res.begin(), res.end());
      }
      return out;
    };
    const auto serial = run(1);
    for (const std::size_t threads : {2u, 4u}) {
      const auto threaded = run(threads);
      ASSERT_EQ(threaded.size(), serial.size());
      EXPECT_EQ(std::memcmp(threaded.data(), serial.data(),
                            serial.size() * sizeof(float)),
                0)
          << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace hetero::comm
