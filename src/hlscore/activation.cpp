// Activations of the conv and FCN cores, a whole output vector per call.
//
// tanh is a lane-parallel, branch-free port of the fdlibm tanhf/expm1f pair
// that glibc ships (s_tanhf.c, s_expm1f.c). Every lane evaluates each branch
// the scalar code can take, with the same IEEE single-precision operations
// in the same order (up to swapping the operands of + and *, which changes
// no bit), and keeps the result of the branch the scalar code takes for its
// input. So each lane holds exactly glibc's tanhf: test_hlscore compares
// both instruction-set paths with std::tanh bit for bit on a million strided
// inputs and every branch edge, and on all 2^32 floats in
// ActivationTest.DISABLED_TanhMatchesLibmExhaustive. The library is compiled
// with -ffp-contract=off, so no multiply and add fuse into one FMA, which
// would round once where fdlibm rounds twice.
//
// The notice of the fdlibm sources:
//
// Conversion to float by Ian Lance Taylor, Cygnus Support, ian@cygnus.com.
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
#include "hlscore/activation.hpp"

#include <bit>
#include <cstdint>
#include <cstring>

#include "hlscore/tanh.hpp"

namespace dfc::hls {

namespace {

// fdlibm's expm1f constants, by bit pattern.
constexpr float kInvLn2 = std::bit_cast<float>(0x3fb8aa3bU);  // 1.4426950216e+00
constexpr float kLn2Hi = std::bit_cast<float>(0x3f317180U);   // 6.9313812256e-01
constexpr float kLn2Lo = std::bit_cast<float>(0x3717f7d1U);   // 9.0580006145e-06
constexpr float kQ1 = std::bit_cast<float>(0xbd088889U);      // -3.3333335072e-02
constexpr float kQ2 = std::bit_cast<float>(0x3ad00d01U);      // 1.5873016091e-03
constexpr float kQ3 = std::bit_cast<float>(0xb8a670cdU);      // -7.9365076090e-05
constexpr float kQ4 = std::bit_cast<float>(0x36867e54U);      // 4.0082177293e-06
constexpr float kQ5 = std::bit_cast<float>(0xb457edbbU);      // -2.0109921195e-07

// N floats, and N 32-bit words for their bit patterns and lane masks (a
// comparison yields -1 or 0 per lane; `mask ? a : b` selects per lane, with
// both arms vectors).
template <int N>
struct Lanes {
  typedef float F __attribute__((vector_size(N * sizeof(float))));
  typedef std::int32_t I __attribute__((vector_size(N * sizeof(float))));
  typedef std::uint32_t U __attribute__((vector_size(N * sizeof(float))));
};

// tanhf on each lane of x, in place. Always inlined, so the vector code is
// compiled for the instruction set of the path that calls it, and no vector
// crosses a function boundary by value.
template <int N>
[[gnu::always_inline]] inline void tanh_lanes(typename Lanes<N>::F& x) {
  using F = typename Lanes<N>::F;
  using I = typename Lanes<N>::I;
  using U = typename Lanes<N>::U;
  const F one = F{} + 1.0f;
  const F two = one + one;
  const U sign = (U)x & 0x80000000U;
  const I ix = (I)x & 0x7fffffff;

  // For 2^-55 <= |x| < 22, tanhf takes t = expm1f(2|x|) and 1 - 2/(t+2)
  // when |x| >= 1, else t = expm1f(-2|x|) and -t/(t+2). Lanes whose result
  // comes from elsewhere (|x| >= 22, inf, NaN) evaluate at |x| = 1 instead,
  // which keeps every float->int conversion below in range.
  const F ax = ix < 0x41b00000 ? (F)ix : one;
  const I big = ax >= one;
  const F a = big ? ax + ax : ax * -2.0f;

  // expm1f(a) for the arguments tanhf passes: a >= 2, or -2 < a <= 0.
  // Argument reduction a = k*ln2 + r, where r = hi - lo rounded and c is
  // its rounding error. Positive a always take the general reduction.
  const I ha = (I)a & 0x7fffffff;
  const F half_signed = (F)(((U)a & 0x80000000U) | (U)(one * 0.5f));  // +-0.5 as a's sign
  I k = __builtin_convertvector(kInvLn2 * a + half_signed, I);
  const F tk = __builtin_convertvector(k, F);
  F hi = a - tk * kLn2Hi;  // exact: ln2_hi has trailing zero bits
  F lo = tk * kLn2Lo;
  const I k_minus1 = ha < 0x3f851592;  // |a| < 1.5 ln2, so a < 0 here
  hi = k_minus1 ? a + kLn2Hi : hi;
  lo = k_minus1 ? F{} - kLn2Lo : lo;
  k = k_minus1 ? I{} - 1 : k;
  F r = hi - lo;
  const F c = (hi - r) - lo;
  const I k_zero = ha <= 0x3eb17218;  // |a| <= 0.5 ln2: no reduction
  r = k_zero ? a : r;
  k = k_zero ? I{} : k;

  // expm1(r) on the primary range, by fdlibm's rational approximation.
  const F hfx = 0.5f * r;
  const F hxs = r * hfx;
  const F r1 = one + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const F t = 3.0f - r1 * hfx;
  F e = hxs * ((r1 - t) / (6.0f - r * t));
  const F em1_k0 = r - (r * e - hxs);
  e = (r * (e - c) - c) - hxs;
  const F em1_km1 = 0.5f * (r - e) - 0.5f;

  // 2^k * (1 + (r - e)) - 1 for k >= 2 or k <= -2, one of three ways by the
  // size of k; k is added to a float's exponent on its bit pattern.
  // 1 - 2^-k is exact for the k <= 22 it is used with.
  const F pow2_minus_k = (F)((U)(0x7f - k) << 23);
  const I outer_k = (k <= -2) | (k > 56);
  F y = k <= 22 ? (one - pow2_minus_k) - (e - r) : (r - (e + pow2_minus_k)) + one;
  y = outer_k ? one - (e - r) : y;
  y = (F)((U)y + ((U)k << 23));
  F em1 = outer_k ? y - one : y;
  em1 = k == -1 ? em1_km1 : em1;
  em1 = k == 0 ? em1_k0 : em1;
  em1 = ha < 0x33000000 ? a : em1;  // |a| < 2^-25: expm1f returns a

  const F q = (big ? two : -em1) / (em1 + two);
  F z = big ? one - q : q;
  z = (F)((U)z ^ sign);
  // |x| >= 22 and +-inf: one - tiny, which rounds to one.
  z = ix >= 0x41b00000 ? (F)((U)one | sign) : z;
  // NaN: one/x +- one returns x quieted, as x + x does.
  z = ix > 0x7f800000 ? x + x : z;
  // |x| < 2^-55, +-0 and subnormals.
  x = ix < 0x24000000 ? x * (one + x) : z;
}

// tanhf on n >= N values in vectors of N; the last vector ends at p + n and
// may overlap the one before it, so it is loaded before anything is stored.
template <int N>
[[gnu::always_inline]] inline void tanh_run(float* p, std::size_t n) {
  typename Lanes<N>::F v;
  typename Lanes<N>::F last;
  std::memcpy(&last, p + n - N, sizeof(last));
  for (std::size_t i = 0; i + N < n; i += N) {
    std::memcpy(&v, p + i, sizeof(v));
    tanh_lanes<N>(v);
    std::memcpy(p + i, &v, sizeof(v));
  }
  tanh_lanes<N>(last);
  std::memcpy(p + n - N, &last, sizeof(last));
}

// tanhf on 1 <= n < 4 values, gathered into a vector in registers: a vector
// load of a partly written stack buffer would wait for the stores to retire.
[[gnu::always_inline]] inline void tanh_short(float* p, std::size_t n) {
  Lanes<4>::F v = {p[0], n > 1 ? p[1] : 0.0f, n > 2 ? p[2] : 0.0f, 0.0f};
  tanh_lanes<4>(v);
  p[0] = v[0];
  if (n > 1) p[1] = v[1];
  if (n > 2) p[2] = v[2];
}

}  // namespace

void tanh_baseline(std::span<float> values) {
  if (values.size() >= 4) {
    tanh_run<4>(values.data(), values.size());
  } else if (!values.empty()) {
    tanh_short(values.data(), values.size());
  }
}

#if defined(__x86_64__) || defined(__i386__)

[[gnu::target("avx2")]] void tanh_avx2(std::span<float> values) {
  if (values.size() >= 8) {
    tanh_run<8>(values.data(), values.size());
  } else if (values.size() >= 4) {
    tanh_run<4>(values.data(), values.size());
  } else if (!values.empty()) {
    tanh_short(values.data(), values.size());
  }
}

bool tanh_avx2_supported() {
  __builtin_cpu_init();  // a static initializer elsewhere may run first
  return __builtin_cpu_supports("avx2");
}

#else

void tanh_avx2(std::span<float> values) { tanh_baseline(values); }

bool tanh_avx2_supported() { return false; }

#endif

void apply_activation(Activation act, std::span<float> values) {
  switch (act) {
    case Activation::kNone: return;
    case Activation::kRelu:
      for (float& v : values) v = v > 0.0f ? v : 0.0f;
      return;
    case Activation::kTanh: {
      static const auto path = tanh_avx2_supported() ? tanh_avx2 : tanh_baseline;
      path(values);
      return;
    }
  }
}

}  // namespace dfc::hls
