// Nonlinear activation applied by the cores on each output value
// (paper Sec. II-A: "the convolutional layer may apply a nonlinear
// function, e.g. tanh() or max(0, x)"). The nonlinearity is element-wise,
// so the cores apply it to a whole output vector at once: a conv
// position's OUT_FM values, an FCN layer's outputs.
#pragma once

#include <span>

namespace dfc::hls {

enum class Activation { kNone, kRelu, kTanh };

/// Applies `act` to every value in place. relu is x > 0 ? x : 0 (so -0 and
/// NaN map to +0). tanh is defined in this library, not taken from the C
/// library: a lane-parallel port of fdlibm's tanhf that is bit-identical to
/// glibc's on every float input, so results do not depend on the host libm.
void apply_activation(Activation act, std::span<float> values);

/// One value: the vector form on a vector of length one.
inline float apply_activation(Activation act, float x) {
  apply_activation(act, std::span<float>(&x, 1));
  return x;
}

inline const char* activation_name(Activation act) {
  switch (act) {
    case Activation::kNone: return "none";
    case Activation::kRelu: return "relu";
    case Activation::kTanh: return "tanh";
  }
  return "?";
}

}  // namespace dfc::hls
