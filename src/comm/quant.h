// Merge-payload compression: fp16 / int8 quantization of the merge deltas
// with per-group scales (DESIGN.md §10).
//
// The delta-aware merge ships each replica's touched-row delta (and the
// dense tail) to its peers; at XML scale those bytes dominate the merge
// cost. This module quantizes the shipped deltas — fp16 with a single
// dynamic loss scale, or int8 with one fp32 scale per group (a W1 row in
// sparse mode, a 512-element block elsewhere) — into a self-describing
// wire payload, and validates/decodes such payloads back. The per-element
// math runs on the hetero::vec quantization kernels, so encode/decode are
// bit-identical on every ISA.
//
// The decoder is an untrusted-input surface (the fuzzers replay mutated
// payloads): decode_payload() either succeeds or throws hetero::ParseError
// with a byte offset — hostile scales (0 / inf / nan), truncated buffers
// and length mismatches are all typed errors, never UB.
//
// Wire layout (little-endian, all offsets fixed):
//   0  u8[4]  magic "HQPK"
//   4  u8     version (1)
//   5  u8     precision (1 = fp16, 2 = int8; fp32 never encodes)
//   6  u16    reserved (0)
//   8  u32    cols   — scale-group width (last group may be short)
//   12 f32    loss_scale — fp16 quantization scale S (1.0 for int8)
//   16 u64    rows   — number of scale groups (= ceil(elems / cols))
//   24 u64    elems  — total element count
//   32 f32[rows]  per-group scales (int8 only)
//   then elems x element-size code bytes (u16 halves / i8 codes)
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/allreduce.h"

namespace hetero::comm {

enum class MergePrecision : std::uint8_t { kFp32 = 0, kFp16 = 1, kInt8 = 2 };

/// Display / flag name: "fp32", "fp16", "int8".
const char* precision_name(MergePrecision p);

/// Parses a flag value; nullopt on anything but the three names.
std::optional<MergePrecision> parse_precision(const std::string& text);

/// Bytes per element on the wire: 4 / 2 / 1.
std::size_t precision_elem_bytes(MergePrecision p);

/// Dynamic fp16 loss-scale guard in the style of torch.cuda.amp: deltas are
/// quantized as half(delta * scale); if any element overflows fp16 range
/// the merge halves the scale and requantizes (deterministic — only the
/// overflow *count being nonzero* matters, never float comparison order),
/// and after kGrowEvery consecutive clean merges the scale doubles back.
/// Guards against fp16 underflow on small late-training deltas.
struct LossScaleGuard {
  static constexpr float kMinScale = 1.0f;
  static constexpr float kMaxScale = 65536.0f;
  static constexpr std::uint32_t kGrowEvery = 64;

  float scale = 1024.0f;
  std::uint32_t good_streak = 0;

  void on_overflow() {
    scale = scale * 0.5f < kMinScale ? kMinScale : scale * 0.5f;
    good_streak = 0;
  }
  void on_clean_merge() {
    if (++good_streak >= kGrowEvery) {
      good_streak = 0;
      if (scale < kMaxScale) scale *= 2.0f;
    }
  }
};

/// A decoded quantized payload. Code/scale storage is owned (copied out of
/// the wire bytes — no alignment assumptions on the input buffer), and the
/// vectors are reused across decode calls on the same object.
struct QuantizedPayload {
  MergePrecision precision = MergePrecision::kFp16;
  std::uint32_t cols = 0;
  std::uint64_t rows = 0;
  std::uint64_t elems = 0;
  float loss_scale = 1.0f;
  std::vector<float> scales;        // int8: one per group; fp16: empty
  std::vector<std::uint16_t> fp16;  // fp16 codes (elems entries)
  std::vector<std::int8_t> i8;      // int8 codes (elems entries)
};

/// Exact encoded size of a payload with the given shape.
std::size_t encoded_payload_bytes(MergePrecision p, std::uint64_t rows,
                                  std::uint64_t elems);

/// Billing split for the simulated transfer: element data vs metadata
/// (header + loss scale + int8 per-group scales).
WirePayload wire_payload(MergePrecision p, std::uint64_t rows,
                         std::uint64_t elems);

/// Quantizes `x` (grouped by `cols`; the last group may be short) into the
/// fp16 wire format with loss scale `scale`, appending nothing — `out` is
/// resized to the exact encoded size. Returns the number of elements that
/// overflowed fp16 range (|x*scale| > 65504); on a nonzero return the
/// caller halves the scale and re-encodes (x is not modified).
std::size_t encode_fp16(std::span<const float> x, std::uint32_t cols,
                        float scale, std::vector<std::uint8_t>& out);

/// The int8 scale rule for one group of `n` elements: writes the codes
/// rne(clamp(x * 127 / absmax)) and returns the wire scale absmax / 127
/// (code * scale = value). A group whose absmax is zero or non-finite gets
/// scale 0, so it dequantizes to zero (finite elements get code 0; an inf
/// element gets the clamp of inf * 0). encode_i8 and the merge codec both
/// use it.
float encode_i8_group(const float* x, std::int8_t* codes, std::size_t n);

/// Quantizes `x` into the int8 wire format with one encode_i8_group scale
/// per `cols`-wide group.
void encode_i8(std::span<const float> x, std::uint32_t cols,
               std::vector<std::uint8_t>& out);

/// Validates and decodes a quantized payload into `out` (storage reused).
/// Throws hetero::ParseError (source "quant-payload", byte offset set) on
/// any malformed input: bad magic/version/precision, inconsistent
/// rows/cols/elems, non-finite or negative or overflow-inducing scales,
/// truncated buffers, and trailing bytes.
void decode_payload(std::span<const std::uint8_t> bytes,
                    QuantizedPayload& out);

/// Dequantizes a decoded payload into `x` (resized to elems). Used by
/// tests and the fuzzer's sanity pass; the merge hot path instead feeds the
/// codes straight into the fused vec merge_accum_{fp16,i8} kernels.
void dequantize(const QuantizedPayload& p, std::vector<float>& x);

}  // namespace hetero::comm
