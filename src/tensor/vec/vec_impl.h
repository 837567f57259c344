// Generic kernel bodies for the vec backend, templated over the Vec wrapper
// types (vec_scalar.h / vec256.h / vec512.h) and instantiated once per ISA
// translation unit via make_table<>.
//
// Every body evaluates the exact per-element expression of the scalar code
// it replaces (see the call sites in tensor/ops.cpp, sparse/ops.cpp,
// core/merging.cpp) — no fused multiply-adds, no reassociation. The one
// exception is exp_shifted, whose reference is libm's expf: its SIMD
// bodies use FMA exactly where libm's own code does (expf_glibc.h). The
// reductions follow the fixed 8-virtual-lane contract documented in vec.h:
// element p lands in lane p mod 8 on every ISA, the main loop consumes 8
// elements per iteration, the tail element at offset t past the last full
// virtual row therefore lands in lane t, and the lanes are combined with
// one fixed tree.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

#include "tensor/vec/vec.h"

namespace hetero::vec::impl {

// ---------------------------------------------------------------------------
// Element-wise float kernels over VF. Lane width only changes how many
// elements one iteration touches, never the per-element expression.
// ---------------------------------------------------------------------------

// y[i] += a * x[i]
template <class VF>
void axpy(float a, const float* x, float* y, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF av = VF::broadcast(a);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (VF::load(y + i) + av * VF::load(x + i)).store(y + i);
  }
  if (const std::size_t r = n - i) {
    (VF::load_n(y + i, r) + av * VF::load_n(x + i, r)).store_n(y + i, r);
  }
}

// y[i] = a * x[i] + b * y[i]
template <class VF>
void axpby(float a, const float* x, float b, float* y, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF av = VF::broadcast(a);
  const VF bv = VF::broadcast(b);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (av * VF::load(x + i) + bv * VF::load(y + i)).store(y + i);
  }
  if (const std::size_t r = n - i) {
    (av * VF::load_n(x + i, r) + bv * VF::load_n(y + i, r)).store_n(y + i, r);
  }
}

// x[i] *= a
template <class VF>
void scale(float* x, float a, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF av = VF::broadcast(a);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (VF::load(x + i) * av).store(x + i);
  }
  if (const std::size_t r = n - i) {
    (VF::load_n(x + i, r) * av).store_n(x + i, r);
  }
}

// y[i] += x[i]
template <class VF>
void add(const float* x, float* y, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (VF::load(y + i) + VF::load(x + i)).store(y + i);
  }
  if (const std::size_t r = n - i) {
    (VF::load_n(y + i, r) + VF::load_n(x + i, r)).store_n(y + i, r);
  }
}

// x[i] = max(x[i], 0) with std::max's NaN/-0 semantics
template <class VF>
void relu(float* x, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    VF::relu(VF::load(x + i)).store(x + i);
  }
  if (const std::size_t r = n - i) {
    VF::relu(VF::load_n(x + i, r)).store_n(x + i, r);
  }
}

// g[i] = (a[i] <= 0) ? 0 : g[i]
template <class VF>
void relu_backward(const float* a, float* g, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    VF::zero_where_nonpositive(VF::load(a + i), VF::load(g + i))
        .store(g + i);
  }
  if (const std::size_t r = n - i) {
    VF::zero_where_nonpositive(VF::load_n(a + i, r), VF::load_n(g + i, r))
        .store_n(g + i, r);
  }
}

// w = global[i]; global[i] = merged[i] + gamma * (w - prev[i]); prev[i] = w
template <class VF>
void momentum_update(const float* merged, float* global, float* prev,
                     float gamma, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF gv = VF::broadcast(gamma);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const VF w = VF::load(global + i);
    (VF::load(merged + i) + gv * (w - VF::load(prev + i))).store(global + i);
    w.store(prev + i);
  }
  if (const std::size_t r = n - i) {
    const VF w = VF::load_n(global + i, r);
    (VF::load_n(merged + i, r) + gv * (w - VF::load_n(prev + i, r)))
        .store_n(global + i, r);
    w.store_n(prev + i, r);
  }
}

// y[i] = std::exp(x[i] - s) (tensor::softmax_rows). The subtraction is the
// scalar float one; VF::exp equals libm's expf on every input (scalar: it
// is std::exp; AVX2/AVX-512: expf_glibc.h). x may equal y.
template <class VF>
void exp_shifted(const float* x, float s, float* y, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF sv = VF::broadcast(s);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    VF::exp(VF::load(x + i) - sv).store(y + i);
  }
  if (const std::size_t r = n - i) {
    VF::exp(VF::load_n(x + i, r) - sv).store_n(y + i, r);
  }
}

// ---------------------------------------------------------------------------
// spmm_row (sparse::spmm): y[j] += sum_i v[i] * w[cols[i] * h + j] over
// ascending i. Each element sees the axpy expression y + v[i] * w in the
// same i order as one axpy call per nonzero; the output row just stays in
// registers across the nonzeros, kSpmmStrip columns at a time.
// ---------------------------------------------------------------------------

inline constexpr std::size_t kSpmmStrip = 64;

// One strip: NR full registers plus, when rem > 0, one of rem live lanes.
template <class VF, std::size_t NR>
void spmm_strip(const float* v, const std::uint32_t* cols, std::size_t nnz,
                const float* w, std::size_t h, float* y, std::size_t rem) {
  constexpr std::size_t W = VF::kWidth;
  VF acc[NR + 1];
  for (std::size_t q = 0; q < NR; ++q) acc[q] = VF::load(y + q * W);
  acc[NR] = rem != 0 ? VF::load_n(y + NR * W, rem) : VF::zero();
  for (std::size_t i = 0; i < nnz; ++i) {
    const VF av = VF::broadcast(v[i]);
    const float* wr = w + static_cast<std::size_t>(cols[i]) * h;
    for (std::size_t q = 0; q < NR; ++q) {
      acc[q] = acc[q] + av * VF::load(wr + q * W);
    }
    if (rem != 0) acc[NR] = acc[NR] + av * VF::load_n(wr + NR * W, rem);
  }
  for (std::size_t q = 0; q < NR; ++q) acc[q].store(y + q * W);
  if (rem != 0) acc[NR].store_n(y + NR * W, rem);
}

template <class VF, std::size_t... NR>
constexpr auto spmm_strips(std::index_sequence<NR...>) {
  return std::array{&spmm_strip<VF, NR>...};
}

template <class VF>
void spmm_row(const float* v, const std::uint32_t* cols, std::size_t nnz,
              const float* w, std::size_t h, float* y) {
  constexpr std::size_t W = VF::kWidth;
  static_assert(kSpmmStrip % W == 0, "a strip must hold whole registers");
  // kStrips[k] runs a strip of k full registers.
  static constexpr auto kStrips =
      spmm_strips<VF>(std::make_index_sequence<kSpmmStrip / W + 1>{});
  for (std::size_t j = 0; j < h; j += kSpmmStrip) {
    const std::size_t len = std::min(kSpmmStrip, h - j);
    kStrips[len / W](v, cols, nnz, w + j, h, y + j, len % W);
  }
}

// ---------------------------------------------------------------------------
// Fixed 8-virtual-lane reductions. RF/VD must satisfy kWidth <= 8 and
// 8 % kWidth == 0 so the 8-lane accumulator splits evenly across registers:
// scalar keeps 8 one-lane accumulators, AVX2 one 8-float ymm (or two
// 4-double ymm), AVX-512 reuses the AVX2 float shape and one 8-double zmm.
// ---------------------------------------------------------------------------

inline float reduce_tree8(const float* l) {
  const float t0 = l[0] + l[4];
  const float t1 = l[1] + l[5];
  const float t2 = l[2] + l[6];
  const float t3 = l[3] + l[7];
  const float u0 = t0 + t2;
  const float u1 = t1 + t3;
  return u0 + u1;
}

inline double reduce_tree8d(const double* l) {
  const double t0 = l[0] + l[4];
  const double t1 = l[1] + l[5];
  const double t2 = l[2] + l[6];
  const double t3 = l[3] + l[7];
  const double u0 = t0 + t2;
  const double u1 = t1 + t3;
  return u0 + u1;
}

// Finishes a float dot product whose 8-lane accumulator `acc` has consumed
// a[0, i) * b[0, i) for a multiple of 8 i: the tail element i + t belongs
// to lane t — same accumulation expression, scalar this time — then the
// lanes are combined with reduce_tree8. dot_f32 and every tiled output of
// gemm_a_bt end here, so they finish identically.
template <class RF>
float finish_dot_f32(const RF* acc, const float* a, const float* b,
                     std::size_t i, std::size_t n) {
  constexpr std::size_t W = RF::kWidth;
  alignas(32) float lanes[8];
  for (std::size_t k = 0; k < 8 / W; ++k) acc[k].store(lanes + k * W);
  for (std::size_t l = 0; i < n; ++i, ++l) {
    lanes[l] = lanes[l] + a[i] * b[i];
  }
  return reduce_tree8(lanes);
}

// sum_p a[p] * b[p] in float (gemm_a_bt inner product).
template <class RF>
float dot_f32(const float* a, const float* b, std::size_t n) {
  constexpr std::size_t W = RF::kWidth;
  static_assert(W <= 8 && 8 % W == 0, "reduction lanes must tile 8");
  constexpr std::size_t kAcc = 8 / W;
  RF acc[kAcc];
  for (auto& v : acc) v = RF::zero();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t k = 0; k < kAcc; ++k) {
      acc[k] = acc[k] + RF::load(a + i + k * W) * RF::load(b + i + k * W);
    }
  }
  return finish_dot_f32(acc, a, b, i, n);
}

// C = A * B^T (tensor::gemm_a_bt) for row-major A (m x k) and B (n x k).
// A 4x2 register tile walks rows i..i+3 of A against rows j, j+1 of B in
// one pass over k. Each of its 8 outputs keeps its own 8-lane accumulator,
// adds a[p] * b[p] in ascending p exactly as dot_f32's main loop does
// (element p in lane p mod 8) and ends in the same finish_dot_f32, so the
// tile changes how often each row is loaded, never a sum: every output
// equals dot_f32 of its two rows bit for bit. Rows and columns left over
// from the tile call dot_f32 itself.
template <class RF>
void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m,
               std::size_t n, std::size_t k) {
  constexpr std::size_t W = RF::kWidth;
  static_assert(W <= 8 && 8 % W == 0, "reduction lanes must tile 8");
  constexpr std::size_t kAcc = 8 / W;
  constexpr std::size_t kMr = 4, kNr = 2;
  const std::size_t k8 = k - k % 8;
  std::size_t i = 0;
  for (; i + kMr <= m; i += kMr) {
    const float* ar[kMr];
    for (std::size_t r = 0; r < kMr; ++r) ar[r] = a + (i + r) * k;
    std::size_t j = 0;
    for (; j + kNr <= n; j += kNr) {
      const float* br[kNr];
      for (std::size_t s = 0; s < kNr; ++s) br[s] = b + (j + s) * k;
      RF acc[kMr][kNr][kAcc];
      for (auto& rs : acc) {
        for (auto& ss : rs) {
          for (auto& v : ss) v = RF::zero();
        }
      }
      for (std::size_t p = 0; p < k8; p += 8) {
        for (std::size_t q = 0; q < kAcc; ++q) {
          RF bv[kNr];
          for (std::size_t s = 0; s < kNr; ++s) {
            bv[s] = RF::load(br[s] + p + q * W);
          }
          for (std::size_t r = 0; r < kMr; ++r) {
            const RF av = RF::load(ar[r] + p + q * W);
            for (std::size_t s = 0; s < kNr; ++s) {
              acc[r][s][q] = acc[r][s][q] + av * bv[s];
            }
          }
        }
      }
      for (std::size_t r = 0; r < kMr; ++r) {
        for (std::size_t s = 0; s < kNr; ++s) {
          c[(i + r) * n + j + s] =
              finish_dot_f32(acc[r][s], ar[r], br[s], k8, k);
        }
      }
    }
    for (; j < n; ++j) {
      for (std::size_t r = 0; r < kMr; ++r) {
        c[(i + r) * n + j] = dot_f32<RF>(ar[r], b + j * k, k);
      }
    }
  }
  for (; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      c[i * n + j] = dot_f32<RF>(a + i * k, b + j * k, k);
    }
  }
}

// sum_p double(a[p]) * b[p] (tensor::dot).
template <class VD>
double dot_f64(const float* a, const float* b, std::size_t n) {
  constexpr std::size_t W = VD::kWidth;
  static_assert(W <= 8 && 8 % W == 0, "reduction lanes must tile 8");
  constexpr std::size_t kAcc = 8 / W;
  VD acc[kAcc];
  for (auto& v : acc) v = VD::zero();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t k = 0; k < kAcc; ++k) {
      acc[k] = acc[k] +
               VD::from_float(a + i + k * W) * VD::from_float(b + i + k * W);
    }
  }
  alignas(64) double lanes[8];
  for (std::size_t k = 0; k < kAcc; ++k) acc[k].store(lanes + k * W);
  for (std::size_t l = 0; i < n; ++i, ++l) {
    lanes[l] = lanes[l] + static_cast<double>(a[i]) * b[i];
  }
  return reduce_tree8d(lanes);
}

// sum_p double(x[p]) * x[p] (tensor::sum_of_squares).
template <class VD>
double sum_squares(const float* x, std::size_t n) {
  constexpr std::size_t W = VD::kWidth;
  static_assert(W <= 8 && 8 % W == 0, "reduction lanes must tile 8");
  constexpr std::size_t kAcc = 8 / W;
  VD acc[kAcc];
  for (auto& v : acc) v = VD::zero();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t k = 0; k < kAcc; ++k) {
      const VD v = VD::from_float(x + i + k * W);
      acc[k] = acc[k] + v * v;
    }
  }
  alignas(64) double lanes[8];
  for (std::size_t k = 0; k < kAcc; ++k) acc[k].store(lanes + k * W);
  for (std::size_t l = 0; i < n; ++i, ++l) {
    lanes[l] = lanes[l] + static_cast<double>(x[i]) * x[i];
  }
  return reduce_tree8d(lanes);
}

// ---------------------------------------------------------------------------
// Fused-merge building blocks over a double accumulator block. Element-wise
// in double, scalar tails (the accumulator blocks are at most 512 elements,
// so the tail is cold). The finalize kernels narrow through VD::NarrowF —
// a float type of the same lane count.
// ---------------------------------------------------------------------------

// acc[i] = w * x[i]
template <class VD>
void merge_init(double* acc, const float* x, double w, std::size_t n) {
  constexpr std::size_t W = VD::kWidth;
  const VD wv = VD::broadcast(w);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (wv * VD::from_float(x + i)).store(acc + i);
  }
  for (; i < n; ++i) acc[i] = w * x[i];
}

// acc[i] += w * x[i]
template <class VD>
void merge_accum(double* acc, const float* x, double w, std::size_t n) {
  constexpr std::size_t W = VD::kWidth;
  const VD wv = VD::broadcast(w);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (VD::load(acc + i) + wv * VD::from_float(x + i)).store(acc + i);
  }
  for (; i < n; ++i) acc[i] = acc[i] + w * x[i];
}

// x[i] = float(acc[i])
template <class VD>
void merge_store(const double* acc, float* x, std::size_t n) {
  constexpr std::size_t W = VD::kWidth;
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    VD::load(acc + i).store_float(x + i);
  }
  for (; i < n; ++i) x[i] = static_cast<float>(acc[i]);
}

// w = g[i]; g[i] = float(acc[i]) + gamma * (w - p[i]); p[i] = w
template <class VD>
void merge_finalize_momentum(const double* acc, float* g, float* p,
                             float gamma, std::size_t n) {
  using NF = typename VD::NarrowF;
  constexpr std::size_t W = VD::kWidth;
  static_assert(NF::kWidth == W, "NarrowF must match the double lane count");
  const NF gv = NF::broadcast(gamma);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const NF af = VD::load(acc + i).to_float();
    const NF w = NF::load(g + i);
    (af + gv * (w - NF::load(p + i))).store(g + i);
    w.store(p + i);
  }
  for (; i < n; ++i) {
    const float w = g[i];
    g[i] = static_cast<float>(acc[i]) + gamma * (w - p[i]);
    p[i] = w;
  }
}

// p[i] = g[i]; g[i] = float(acc[i])
template <class VD>
void merge_finalize_plain(const double* acc, float* g, float* p,
                          std::size_t n) {
  using NF = typename VD::NarrowF;
  constexpr std::size_t W = VD::kWidth;
  static_assert(NF::kWidth == W, "NarrowF must match the double lane count");
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    NF::load(g + i).store(p + i);
    VD::load(acc + i).to_float().store(g + i);
  }
  for (; i < n; ++i) {
    p[i] = g[i];
    g[i] = static_cast<float>(acc[i]);
  }
}

// ---------------------------------------------------------------------------
// Quantization kernels (DESIGN.md §10). Element-wise over VF with the same
// width-agnostic discipline as above; the dequantized value is always the
// single-rounded float `code * scale`, and the merge accumulators widen that
// float to double exactly — so every ISA sees the same per-element bits.
// ---------------------------------------------------------------------------

// r[i] = (w[i] - g[i]) + r[i]  (error-feedback delta: replica minus global
// plus the carried residual, in exactly this association)
template <class VF>
void ef_delta(const float* w, const float* g, float* r, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    ((VF::load(w + i) - VF::load(g + i)) + VF::load(r + i)).store(r + i);
  }
  if (const std::size_t r_n = n - i) {
    ((VF::load_n(w + i, r_n) - VF::load_n(g + i, r_n)) +
     VF::load_n(r + i, r_n))
        .store_n(r + i, r_n);
  }
}

// The reduce_tree8 shape with the maxps expression (m > a) ? m : a at every
// site in place of the add.
inline float max_tree8(const float* l) {
  const float t0 = l[0] > l[4] ? l[0] : l[4];
  const float t1 = l[1] > l[5] ? l[1] : l[5];
  const float t2 = l[2] > l[6] ? l[2] : l[6];
  const float t3 = l[3] > l[7] ? l[3] : l[7];
  const float u0 = t0 > t2 ? t0 : t2;
  const float u1 = t1 > t3 ? t1 : t3;
  return u0 > u1 ? u0 : u1;
}

// max over |x[i]|; 0 when n == 0. Fixed 8-virtual-lane accumulator like the
// sum reductions, combined with the same fixed tree — but using the maxps
// expression (m > a) ? m : a at every site, so all ISAs agree bit for bit.
template <class RF>
float absmax(const float* x, std::size_t n) {
  constexpr std::size_t W = RF::kWidth;
  static_assert(W <= 8 && 8 % W == 0, "reduction lanes must tile 8");
  constexpr std::size_t kAcc = 8 / W;
  RF acc[kAcc];
  for (auto& v : acc) v = RF::zero();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t k = 0; k < kAcc; ++k) {
      acc[k] = RF::max(acc[k], RF::abs(RF::load(x + i + k * W)));
    }
  }
  alignas(32) float lanes[8];
  for (std::size_t k = 0; k < kAcc; ++k) acc[k].store(lanes + k * W);
  for (std::size_t l = 0; i < n; ++i, ++l) {
    const float a = std::fabs(x[i]);
    lanes[l] = lanes[l] > a ? lanes[l] : a;
  }
  return max_tree8(lanes);
}

// max over x[i]; -inf when n == 0. absmax without the abs, its lanes
// starting at -inf (tensor::softmax_rows' row max). Against a serial
// std::max chain it can differ only in the sign of a zero max and in
// whether a NaN is kept (DESIGN.md §9 shows why softmax cannot see either).
template <class RF>
float max(const float* x, std::size_t n) {
  constexpr std::size_t W = RF::kWidth;
  static_assert(W <= 8 && 8 % W == 0, "reduction lanes must tile 8");
  constexpr std::size_t kAcc = 8 / W;
  constexpr float kLow = -std::numeric_limits<float>::infinity();
  RF acc[kAcc];
  for (auto& v : acc) v = RF::broadcast(kLow);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t k = 0; k < kAcc; ++k) {
      acc[k] = RF::max(acc[k], RF::load(x + i + k * W));
    }
  }
  alignas(32) float lanes[8];
  for (std::size_t k = 0; k < kAcc; ++k) acc[k].store(lanes + k * W);
  for (std::size_t l = 0; i < n; ++i, ++l) {
    lanes[l] = lanes[l] > x[i] ? lanes[l] : x[i];
  }
  return max_tree8(lanes);
}

// q[i] = half(x[i] * scale), round-to-nearest-even; returns the number of
// elements with |x[i] * scale| > 65504 (the fp16 overflow count driving the
// dynamic loss-scale guard). Dead tail lanes are zero-filled and can never
// exceed the limit.
template <class VF>
std::size_t quant_fp16(const float* x, std::uint16_t* q, float scale,
                       std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF sv = VF::broadcast(scale);
  const VF lim = VF::broadcast(65504.0f);
  std::size_t over = 0;
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const VF v = VF::load(x + i) * sv;
    over += VF::count_abs_gt(v, lim);
    v.store_half(q + i);
  }
  if (const std::size_t r = n - i) {
    const VF v = VF::load_n(x + i, r) * sv;
    over += VF::count_abs_gt(v, lim);
    v.store_half_n(q + i, r);
  }
  return over;
}

// x[i] = float(q[i]) * inv_scale  (the canonical dequantized value: one
// float multiply, single rounding)
template <class VF>
void dequant_fp16(const std::uint16_t* q, float* x, float inv_scale,
                  std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF sv = VF::broadcast(inv_scale);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (VF::load_half(q + i) * sv).store(x + i);
  }
  if (const std::size_t r = n - i) {
    (VF::load_half_n(q + i, r) * sv).store_n(x + i, r);
  }
}

// r[i] = r[i] - float(q[i]) * inv_scale  (subtract what the receivers will
// reconstruct; the leftovers carry to the next merge)
template <class VF>
void residual_fp16(const std::uint16_t* q, float inv_scale, float* r,
                   std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF sv = VF::broadcast(inv_scale);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (VF::load(r + i) - VF::load_half(q + i) * sv).store(r + i);
  }
  if (const std::size_t r_n = n - i) {
    (VF::load_n(r + i, r_n) - VF::load_half_n(q + i, r_n) * sv)
        .store_n(r + i, r_n);
  }
}

// acc[i] += w * double(float(q[i]) * inv_scale)  (fused dequantize +
// weighted accumulate into the merge's double block)
template <class VF, class VD>
void merge_accum_fp16(double* acc, const std::uint16_t* q, double w,
                      float inv_scale, std::size_t n) {
  constexpr std::size_t WF = VF::kWidth;
  constexpr std::size_t WD = VD::kWidth;
  static_assert(WF % WD == 0, "float width must tile the double width");
  const VF sv = VF::broadcast(inv_scale);
  const VD wv = VD::broadcast(w);
  alignas(64) float tmp[WF];
  std::size_t i = 0;
  for (; i + WF <= n; i += WF) {
    (VF::load_half(q + i) * sv).store(tmp);
    for (std::size_t k = 0; k < WF / WD; ++k) {
      (VD::load(acc + i + k * WD) + wv * VD::from_float(tmp + k * WD))
          .store(acc + i + k * WD);
    }
  }
  if (const std::size_t r = n - i) {
    (VF::load_half_n(q + i, r) * sv).store(tmp);
    for (std::size_t k = 0; k < r; ++k) {
      acc[i + k] = acc[i + k] + w * static_cast<double>(tmp[k]);
    }
  }
}

// q[i] = rne(clamp(x[i] * scale, -127, 127)). The clamp is written as
// minps-then-maxps so a NaN product deterministically lands on +127 on
// every ISA, and the float->int conversion is round-to-nearest-even
// (cvtps2dq under the default MXCSR mode / std::nearbyintf).
template <class VF>
void quant_i8(const float* x, std::int8_t* q, float scale, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF sv = VF::broadcast(scale);
  const VF hi = VF::broadcast(127.0f);
  const VF lo = VF::broadcast(-127.0f);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    VF::max(VF::min(VF::load(x + i) * sv, hi), lo).store_i8_rne(q + i);
  }
  if (const std::size_t r = n - i) {
    VF::max(VF::min(VF::load_n(x + i, r) * sv, hi), lo)
        .store_i8_rne_n(q + i, r);
  }
}

// x[i] = float(q[i]) * scale
template <class VF>
void dequant_i8(const std::int8_t* q, float* x, float scale, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF sv = VF::broadcast(scale);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (VF::load_i8(q + i) * sv).store(x + i);
  }
  if (const std::size_t r = n - i) {
    (VF::load_i8_n(q + i, r) * sv).store_n(x + i, r);
  }
}

// r[i] = r[i] - float(q[i]) * scale
template <class VF>
void residual_i8(const std::int8_t* q, float scale, float* r,
                 std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF sv = VF::broadcast(scale);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    (VF::load(r + i) - VF::load_i8(q + i) * sv).store(r + i);
  }
  if (const std::size_t r_n = n - i) {
    (VF::load_n(r + i, r_n) - VF::load_i8_n(q + i, r_n) * sv)
        .store_n(r + i, r_n);
  }
}

// acc[i] += w * double(float(q[i]) * scale)
template <class VF, class VD>
void merge_accum_i8(double* acc, const std::int8_t* q, double w, float scale,
                    std::size_t n) {
  constexpr std::size_t WF = VF::kWidth;
  constexpr std::size_t WD = VD::kWidth;
  static_assert(WF % WD == 0, "float width must tile the double width");
  const VF sv = VF::broadcast(scale);
  const VD wv = VD::broadcast(w);
  alignas(64) float tmp[WF];
  std::size_t i = 0;
  for (; i + WF <= n; i += WF) {
    (VF::load_i8(q + i) * sv).store(tmp);
    for (std::size_t k = 0; k < WF / WD; ++k) {
      (VD::load(acc + i + k * WD) + wv * VD::from_float(tmp + k * WD))
          .store(acc + i + k * WD);
    }
  }
  if (const std::size_t r = n - i) {
    (VF::load_i8_n(q + i, r) * sv).store(tmp);
    for (std::size_t k = 0; k < r; ++k) {
      acc[i + k] = acc[i + k] + w * static_cast<double>(tmp[k]);
    }
  }
}

// ---------------------------------------------------------------------------
// Optimizer update kernels (DESIGN.md §11). Element-wise over VF; the only
// non-arithmetic primitives are sqrt and division, both IEEE correctly
// rounded on every ISA (sqrtss/sqrtps, divss/divps), so the per-element
// bits match across tables just like the mul/add kernels above.
// ---------------------------------------------------------------------------

// Fused Adam/AdamW step (see vec.h for the exact per-element expression).
template <class VF>
void adam_update(float* w, const float* g, float* m, float* v,
                 const AdamParams& p, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF lr = VF::broadcast(p.lr);
  const VF b1 = VF::broadcast(p.beta1);
  const VF c1 = VF::broadcast(1.0f - p.beta1);
  const VF b2 = VF::broadcast(p.beta2);
  const VF c2 = VF::broadcast(1.0f - p.beta2);
  const VF eps = VF::broadcast(p.eps);
  const VF bc1 = VF::broadcast(p.bias1);
  const VF bc2 = VF::broadcast(p.bias2);
  const VF wd = VF::broadcast(p.weight_decay);
  const VF keep = VF::broadcast(p.keep);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const VF wv = VF::load(w + i);
    const VF gv = VF::load(g + i) + wd * wv;
    const VF mv = b1 * VF::load(m + i) + c1 * gv;
    const VF vv = b2 * VF::load(v + i) + c2 * (gv * gv);
    mv.store(m + i);
    vv.store(v + i);
    (keep * wv - lr * ((mv * bc1) / (VF::sqrt(vv * bc2) + eps)))
        .store(w + i);
  }
  if (const std::size_t r = n - i) {
    const VF wv = VF::load_n(w + i, r);
    const VF gv = VF::load_n(g + i, r) + wd * wv;
    const VF mv = b1 * VF::load_n(m + i, r) + c1 * gv;
    const VF vv = b2 * VF::load_n(v + i, r) + c2 * (gv * gv);
    mv.store_n(m + i, r);
    vv.store_n(v + i, r);
    (keep * wv - lr * ((mv * bc1) / (VF::sqrt(vv * bc2) + eps)))
        .store_n(w + i, r);
  }
}

// Adagrad step (see vec.h for the exact per-element expression).
template <class VF>
void adagrad_update(float* w, const float* g, float* a,
                    const AdagradParams& p, std::size_t n) {
  constexpr std::size_t W = VF::kWidth;
  const VF lr = VF::broadcast(p.lr);
  const VF eps = VF::broadcast(p.eps);
  const VF wd = VF::broadcast(p.weight_decay);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    const VF wv = VF::load(w + i);
    const VF gv = VF::load(g + i) + wd * wv;
    const VF av = VF::load(a + i) + gv * gv;
    av.store(a + i);
    (wv - lr * (gv / (VF::sqrt(av) + eps))).store(w + i);
  }
  if (const std::size_t r = n - i) {
    const VF wv = VF::load_n(w + i, r);
    const VF gv = VF::load_n(g + i, r) + wd * wv;
    const VF av = VF::load_n(a + i, r) + gv * gv;
    av.store_n(a + i, r);
    (wv - lr * (gv / (VF::sqrt(av) + eps))).store_n(w + i, r);
  }
}

// ---------------------------------------------------------------------------
// Table assembly. VF: element-wise float type. VD: double type (also used
// for the double reductions). RF: float reduction type — the avx512 table
// passes the 8-lane AVX2 type here to honor the 8-virtual-lane contract.
// ---------------------------------------------------------------------------

template <class VF, class VD, class RF>
VecKernels make_table(Isa isa) {
  VecKernels t{};
  t.isa = isa;
  t.axpy = &axpy<VF>;
  t.axpby = &axpby<VF>;
  t.scale = &scale<VF>;
  t.add = &add<VF>;
  t.relu = &relu<VF>;
  t.relu_backward = &relu_backward<VF>;
  t.momentum_update = &momentum_update<VF>;
  t.dot_f32 = &dot_f32<RF>;
  t.dot_f64 = &dot_f64<VD>;
  t.sum_squares = &sum_squares<VD>;
  t.max = &max<RF>;
  t.gemm_a_bt = &gemm_a_bt<RF>;
  t.exp_shifted = &exp_shifted<VF>;
  t.spmm_row = &spmm_row<VF>;
  t.merge_init = &merge_init<VD>;
  t.merge_accum = &merge_accum<VD>;
  t.merge_store = &merge_store<VD>;
  t.merge_finalize_momentum = &merge_finalize_momentum<VD>;
  t.merge_finalize_plain = &merge_finalize_plain<VD>;
  t.ef_delta = &ef_delta<VF>;
  t.absmax = &absmax<RF>;
  t.quant_fp16 = &quant_fp16<VF>;
  t.dequant_fp16 = &dequant_fp16<VF>;
  t.residual_fp16 = &residual_fp16<VF>;
  t.merge_accum_fp16 = &merge_accum_fp16<VF, VD>;
  t.quant_i8 = &quant_i8<VF>;
  t.dequant_i8 = &dequant_i8<VF>;
  t.residual_i8 = &residual_i8<VF>;
  t.merge_accum_i8 = &merge_accum_i8<VF, VD>;
  t.adam_update = &adam_update<VF>;
  t.adagrad_update = &adagrad_update<VF>;
  return t;
}

}  // namespace hetero::vec::impl
