// The two instruction-set paths of the hlscore tanh (activation.cpp).
// apply_activation picks one from the CPU; the tests run both.
#pragma once

#include <span>

namespace dfc::hls {

/// tanh in place, 4 lanes at a time on baseline x86-64 (SSE2).
void tanh_baseline(std::span<float> values);

/// tanh in place, 8 lanes at a time with AVX2. Call only when
/// tanh_avx2_supported().
void tanh_avx2(std::span<float> values);

/// Whether this CPU (and its OS) runs AVX2 code.
bool tanh_avx2_supported();

}  // namespace dfc::hls
