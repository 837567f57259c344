// glibc's expf, restated for the vector exp_shifted bodies (vec256.h,
// vec512.h). It must equal the host's std::exp(float) on every input, so
// it copies the libm code path a vector table can run beside: the
// `__expf_fma` variant that glibc's ifunc selects exactly when the CPU has
// AVX2 and FMA — the same condition under which vec.cpp installs the AVX2
// and AVX-512 tables. That variant (sysdeps/ieee754/flt-32/e_expf.c built
// with -mfma -mavx2) computes, in double precision:
//
//   kd = fma(x, N/ln2, Shift); ki = bits(kd); kd -= Shift
//   r  = fma(x, N/ln2, -kd)                 r in [-1/2, 1/2]
//   s  = double(kTab[ki % N] + (ki << 47))   2^(k/N)
//   z  = fma(r, C0, C1); y = fma(r, C2, 1); y = fma(z, r * r, y)
//   return float(y * s)
//
// and takes three special branches: -inf and x < kUnderflow return +0,
// x > kOverflow (+inf included) returns +inf, NaN returns x + x. The vector
// bodies compute every lane on the main path and blend those three results
// in. (glibc's errno-only branch for x < -0x1.9d1d9ep6 returns 0x1p-149,
// which the main path also returns there.) The exhaustive test
// DISABLED_ExpShiftedExhaustive in tests/test_vec.cpp pins the equality on
// all 2^32 inputs.
//
// The code path dates from glibc 2.27; older or non-glibc hosts keep
// std::exp in every table (HETERO_GLIBC_EXPF is 0 there).
#pragma once

#include <cmath>  // defines __GLIBC__ / __GLIBC_MINOR__ on glibc hosts
#include <cstdint>

#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 28))
#define HETERO_GLIBC_EXPF 1
#else
#define HETERO_GLIBC_EXPF 0
#endif

namespace hetero::vec::expf_glibc {

inline constexpr int kTableBits = 5;  // N = 32
inline constexpr double kInvLn2N = 0x1.71547652b82fep+5;  // N / ln 2
inline constexpr double kShift = 0x1.8p+52;
inline constexpr double kC0 = 0x1.c6af84b912394p-20;
inline constexpr double kC1 = 0x1.ebfce50fac4f3p-13;
inline constexpr double kC2 = 0x1.62e42ff0c52d6p-6;
inline constexpr float kOverflow = 0x1.62e42ep6f;    // log(0x1p128)
inline constexpr float kUnderflow = -0x1.9fe368p6f;  // log(0x1p-150)

// kTab[i] = bits(2^(i/32)) - (i << 47): glibc's __exp2f_data.tab.
alignas(64) inline constexpr std::uint64_t kTab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

}  // namespace hetero::vec::expf_glibc
