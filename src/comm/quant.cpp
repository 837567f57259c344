#include "comm/quant.h"

#include <cmath>
#include <cstring>

#include "tensor/vec/vec.h"
#include "util/error.h"

namespace hetero::comm {

namespace {

constexpr char kMagic[4] = {'H', 'Q', 'P', 'K'};
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 32;
constexpr const char* kSource = "quant-payload";

void write_bytes(std::vector<std::uint8_t>& out, std::size_t off,
                 const void* p, std::size_t n) {
  std::memcpy(out.data() + off, p, n);
}

template <class T>
T read_at(std::span<const std::uint8_t> bytes, std::size_t off) {
  T v;
  std::memcpy(&v, bytes.data() + off, sizeof(T));
  return v;
}

std::uint64_t group_count(std::uint64_t elems, std::uint32_t cols) {
  return elems == 0 ? 0 : (elems + cols - 1) / cols;
}

// Writes the 32-byte header. cols must be >= 1 when elems > 0.
void write_header(std::vector<std::uint8_t>& out, MergePrecision p,
                  std::uint32_t cols, float loss_scale, std::uint64_t rows,
                  std::uint64_t elems) {
  const std::uint8_t version = kVersion;
  const auto precision = static_cast<std::uint8_t>(p);
  const std::uint16_t reserved = 0;
  write_bytes(out, 0, kMagic, 4);
  write_bytes(out, 4, &version, 1);
  write_bytes(out, 5, &precision, 1);
  write_bytes(out, 6, &reserved, 2);
  write_bytes(out, 8, &cols, 4);
  write_bytes(out, 12, &loss_scale, 4);
  write_bytes(out, 16, &rows, 8);
  write_bytes(out, 24, &elems, 8);
}

[[noreturn]] void bad_payload(const std::string& what, std::size_t offset) {
  throw ParseError(kSource, what, ParseError::npos, offset);
}

}  // namespace

const char* precision_name(MergePrecision p) {
  switch (p) {
    case MergePrecision::kFp32:
      return "fp32";
    case MergePrecision::kFp16:
      return "fp16";
    case MergePrecision::kInt8:
      return "int8";
  }
  return "unknown";
}

std::optional<MergePrecision> parse_precision(const std::string& text) {
  if (text == "fp32") return MergePrecision::kFp32;
  if (text == "fp16") return MergePrecision::kFp16;
  if (text == "int8") return MergePrecision::kInt8;
  return std::nullopt;
}

std::size_t precision_elem_bytes(MergePrecision p) {
  switch (p) {
    case MergePrecision::kFp32:
      return 4;
    case MergePrecision::kFp16:
      return 2;
    case MergePrecision::kInt8:
      return 1;
  }
  return 4;
}

std::size_t encoded_payload_bytes(MergePrecision p, std::uint64_t rows,
                                  std::uint64_t elems) {
  const std::size_t scales =
      p == MergePrecision::kInt8 ? static_cast<std::size_t>(rows) * 4 : 0;
  return kHeaderBytes + scales +
         static_cast<std::size_t>(elems) * precision_elem_bytes(p);
}

WirePayload wire_payload(MergePrecision p, std::uint64_t rows,
                         std::uint64_t elems) {
  WirePayload w;
  w.payload_bytes =
      static_cast<double>(elems) *
      static_cast<double>(precision_elem_bytes(p));
  if (p == MergePrecision::kFp32) return w;  // no metadata: raw floats
  w.metadata_bytes =
      static_cast<double>(encoded_payload_bytes(p, rows, elems)) -
      w.payload_bytes;
  return w;
}

std::size_t encode_fp16(std::span<const float> x, std::uint32_t cols,
                        float scale, std::vector<std::uint8_t>& out) {
  const std::uint64_t elems = x.size();
  const std::uint64_t rows = group_count(elems, cols);
  out.resize(encoded_payload_bytes(MergePrecision::kFp16, rows, elems));
  write_header(out, MergePrecision::kFp16, cols, scale, rows, elems);
  // vector storage is allocator-aligned and the code region starts at byte
  // 32, so the uint16 view is always aligned.
  auto* codes = reinterpret_cast<std::uint16_t*>(out.data() + kHeaderBytes);
  return vec::kernels().quant_fp16(x.data(), codes, scale, elems);
}

float encode_i8_group(const float* x, std::int8_t* codes, std::size_t n) {
  const auto& vk = vec::kernels();
  const float amax = vk.absmax(x, n);
  const bool ok = amax > 0.0f && std::isfinite(amax);
  vk.quant_i8(x, codes, ok ? 127.0f / amax : 0.0f, n);
  return ok ? amax / 127.0f : 0.0f;
}

void encode_i8(std::span<const float> x, std::uint32_t cols,
               std::vector<std::uint8_t>& out) {
  const std::uint64_t elems = x.size();
  const std::uint64_t rows = group_count(elems, cols);
  out.resize(encoded_payload_bytes(MergePrecision::kInt8, rows, elems));
  write_header(out, MergePrecision::kInt8, cols, 1.0f, rows, elems);
  auto* scales = reinterpret_cast<float*>(out.data() + kHeaderBytes);
  auto* codes = reinterpret_cast<std::int8_t*>(out.data() + kHeaderBytes +
                                               rows * sizeof(float));
  for (std::uint64_t g = 0; g < rows; ++g) {
    const std::size_t base = static_cast<std::size_t>(g) * cols;
    scales[g] = encode_i8_group(
        x.data() + base, codes + base,
        std::min<std::size_t>(cols, static_cast<std::size_t>(elems) - base));
  }
}

void decode_payload(std::span<const std::uint8_t> bytes,
                    QuantizedPayload& out) {
  if (bytes.size() < kHeaderBytes) {
    bad_payload("truncated header (" + std::to_string(bytes.size()) +
                    " of " + std::to_string(kHeaderBytes) + " bytes)",
                bytes.size());
  }
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) {
    bad_payload("bad magic (expected \"HQPK\")", 0);
  }
  const auto version = read_at<std::uint8_t>(bytes, 4);
  if (version != kVersion) {
    bad_payload("unsupported version " + std::to_string(version), 4);
  }
  const auto precision_byte = read_at<std::uint8_t>(bytes, 5);
  if (precision_byte != static_cast<std::uint8_t>(MergePrecision::kFp16) &&
      precision_byte != static_cast<std::uint8_t>(MergePrecision::kInt8)) {
    bad_payload("invalid precision " + std::to_string(precision_byte) +
                    " (fp32 merges never encode payloads)",
                5);
  }
  const auto precision = static_cast<MergePrecision>(precision_byte);
  if (read_at<std::uint16_t>(bytes, 6) != 0) {
    bad_payload("nonzero reserved field", 6);
  }
  const auto cols = read_at<std::uint32_t>(bytes, 8);
  const auto loss_scale = read_at<float>(bytes, 12);
  const auto rows = read_at<std::uint64_t>(bytes, 16);
  const auto elems = read_at<std::uint64_t>(bytes, 24);

  if (elems == 0) {
    if (rows != 0) bad_payload("empty payload with nonzero rows", 16);
  } else {
    if (cols == 0) bad_payload("zero group width with nonzero elems", 8);
    if (rows == 0) bad_payload("zero rows with nonzero elems", 16);
    const auto cap = static_cast<unsigned __int128>(rows) * cols;
    const auto prev = static_cast<unsigned __int128>(rows - 1) * cols;
    if (elems > cap || elems <= prev) {
      bad_payload("rows/cols/elems mismatch (rows=" + std::to_string(rows) +
                      " cols=" + std::to_string(cols) +
                      " elems=" + std::to_string(elems) + ")",
                  24);
    }
  }
  if (precision == MergePrecision::kFp16) {
    const float inv = 1.0f / loss_scale;
    if (!std::isfinite(loss_scale) || loss_scale <= 0.0f ||
        !std::isfinite(inv) || !std::isfinite(inv * 65504.0f)) {
      bad_payload("invalid fp16 loss scale", 12);
    }
  } else if (loss_scale != 1.0f) {
    bad_payload("int8 payload with loss scale != 1", 12);
  }

  const std::size_t scale_bytes =
      precision == MergePrecision::kInt8
          ? static_cast<std::size_t>(rows) * sizeof(float)
          : 0;
  const auto expected = static_cast<unsigned __int128>(kHeaderBytes) +
                        scale_bytes +
                        static_cast<unsigned __int128>(elems) *
                            precision_elem_bytes(precision);
  if (expected != bytes.size()) {
    bad_payload("length mismatch (payload declares " +
                    std::to_string(static_cast<double>(expected)) +
                    " bytes, buffer has " + std::to_string(bytes.size()) +
                    ")",
                bytes.size());
  }

  out.precision = precision;
  out.cols = cols;
  out.rows = rows;
  out.elems = elems;
  out.loss_scale = loss_scale;
  out.scales.clear();
  out.fp16.clear();
  out.i8.clear();
  if (precision == MergePrecision::kInt8) {
    out.scales.resize(static_cast<std::size_t>(rows));
    std::memcpy(out.scales.data(), bytes.data() + kHeaderBytes, scale_bytes);
    for (std::size_t g = 0; g < out.scales.size(); ++g) {
      const float s = out.scales[g];
      // A zero scale (all-zero group) is legitimate; non-finite, negative,
      // or overflow-inducing scales are hostile.
      if (!std::isfinite(s) || s < 0.0f || !std::isfinite(s * 127.0f)) {
        bad_payload("invalid scale for group " + std::to_string(g),
                    kHeaderBytes + g * sizeof(float));
      }
    }
    out.i8.resize(static_cast<std::size_t>(elems));
    std::memcpy(out.i8.data(), bytes.data() + kHeaderBytes + scale_bytes,
                static_cast<std::size_t>(elems));
  } else {
    out.fp16.resize(static_cast<std::size_t>(elems));
    std::memcpy(out.fp16.data(), bytes.data() + kHeaderBytes,
                static_cast<std::size_t>(elems) * sizeof(std::uint16_t));
  }
}

void dequantize(const QuantizedPayload& p, std::vector<float>& x) {
  x.resize(static_cast<std::size_t>(p.elems));
  if (p.elems == 0) return;
  const auto& vk = vec::kernels();
  if (p.precision == MergePrecision::kFp16) {
    vk.dequant_fp16(p.fp16.data(), x.data(), 1.0f / p.loss_scale,
                    x.size());
    return;
  }
  for (std::uint64_t g = 0; g < p.rows; ++g) {
    const std::size_t base = static_cast<std::size_t>(g) * p.cols;
    const std::size_t len = std::min<std::size_t>(p.cols, x.size() - base);
    vk.dequant_i8(p.i8.data() + base, x.data() + base, p.scales[g], len);
  }
}

}  // namespace hetero::comm
