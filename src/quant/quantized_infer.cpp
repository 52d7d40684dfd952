#include "quant/quantized_infer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace dfc::quant {

using dfc::core::ConvLayerSpec;
using dfc::core::FcnLayerSpec;
using dfc::core::NetworkSpec;
using dfc::core::PoolLayerSpec;

namespace {

std::int64_t to_raw(float v, const FixedFormat& fmt) { return Fixed::from_float(v, fmt).raw(); }

float raw_to_float(std::int64_t raw, const FixedFormat& fmt) {
  return Fixed(raw, fmt).to_float();
}

/// MAC accumulation in a wide (DSP48-style) register: products carry 2*frac
/// fractional bits and are only rounded/saturated once, at the output.
float mac_result(std::int64_t acc2f, const FixedFormat& fmt) {
  const std::int64_t half = fmt.frac_bits == 0 ? 0 : (std::int64_t{1} << (fmt.frac_bits - 1));
  const std::int64_t shifted =
      fmt.frac_bits == 0 ? acc2f
                         : ((acc2f >= 0 ? acc2f + half : acc2f - half) >> fmt.frac_bits);
  return raw_to_float(Fixed(shifted, fmt).raw(), fmt);
}

/// Activates a layer's whole output in one call, then quantizes it.
void activate_quantized(dfc::core::Activation act, Tensor& out, const FixedFormat& fmt) {
  dfc::hls::apply_activation(act, out.flat());
  for (float& v : out.flat()) v = quantize(v, fmt);
}

Tensor quantize_tensor(const Tensor& t, const FixedFormat& fmt) {
  Tensor out = t;
  for (float& v : out.flat()) v = quantize(v, fmt);
  return out;
}

/// Flattens a CHW tensor into the on-chip stream order (y, x, c).
std::vector<float> to_stream_order(const Tensor& t) {
  const Shape3 s = t.shape();
  std::vector<float> out;
  out.reserve(static_cast<std::size_t>(s.volume()));
  for (std::int64_t y = 0; y < s.h; ++y) {
    for (std::int64_t x = 0; x < s.w; ++x) {
      for (std::int64_t c = 0; c < s.c; ++c) out.push_back(t.at(c, y, x));
    }
  }
  return out;
}

}  // namespace

Tensor fixed_point_infer(const NetworkSpec& spec, const Tensor& image, FixedFormat fmt) {
  fmt.validate();
  spec.validate();
  DFC_REQUIRE(image.shape() == spec.input_shape, "quantized infer: image shape mismatch");

  Tensor cur = quantize_tensor(image, fmt);
  bool in_feature_extractor = true;

  for (const auto& layer : spec.layers) {
    if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      const Shape3 os = conv->out_shape();
      Tensor out(os);
      for (std::int64_t k = 0; k < conv->out_fm; ++k) {
        for (std::int64_t oy = 0; oy < os.h; ++oy) {
          for (std::int64_t ox = 0; ox < os.w; ++ox) {
            std::int64_t acc = to_raw(conv->biases[static_cast<std::size_t>(k)], fmt)
                               << fmt.frac_bits;
            for (std::int64_t c = 0; c < conv->in_shape.c; ++c) {
              for (int dy = 0; dy < conv->kh; ++dy) {
                const std::int64_t iy = oy * conv->stride + dy - conv->pad;
                if (iy < 0 || iy >= conv->in_shape.h) continue;
                for (int dx = 0; dx < conv->kw; ++dx) {
                  const std::int64_t ix = ox * conv->stride + dx - conv->pad;
                  if (ix < 0 || ix >= conv->in_shape.w) continue;
                  const std::int64_t tap = static_cast<std::int64_t>(dy) * conv->kw + dx;
                  const float wv = conv->weights[static_cast<std::size_t>(
                      (k * conv->in_shape.c + c) * conv->kh * conv->kw + tap)];
                  acc += to_raw(wv, fmt) * to_raw(cur.at(c, iy, ix), fmt);
                }
              }
            }
            out.at(k, oy, ox) = mac_result(acc, fmt);
          }
        }
      }
      activate_quantized(conv->act, out, fmt);
      cur = std::move(out);
    } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
      const Shape3 os = pool->out_shape();
      Tensor out(os);
      for (std::int64_t c = 0; c < os.c; ++c) {
        for (std::int64_t oy = 0; oy < os.h; ++oy) {
          for (std::int64_t ox = 0; ox < os.w; ++ox) {
            if (pool->mode == dfc::hls::PoolMode::kMax) {
              float best = cur.at(c, oy * pool->stride, ox * pool->stride);
              for (int dy = 0; dy < pool->kh; ++dy) {
                for (int dx = 0; dx < pool->kw; ++dx) {
                  best = std::max(best, cur.at(c, oy * pool->stride + dy, ox * pool->stride + dx));
                }
              }
              out.at(c, oy, ox) = best;
            } else {
              std::int64_t acc = 0;
              for (int dy = 0; dy < pool->kh; ++dy) {
                for (int dx = 0; dx < pool->kw; ++dx) {
                  acc += to_raw(cur.at(c, oy * pool->stride + dy, ox * pool->stride + dx), fmt);
                }
              }
              out.at(c, oy, ox) = quantize(
                  raw_to_float(acc, fmt) / static_cast<float>(pool->kh * pool->kw), fmt);
            }
          }
        }
      }
      cur = std::move(out);
    } else {
      const auto& fcn = std::get<FcnLayerSpec>(layer);
      // The spec's FCN weights are already in stream order; feed the
      // activations the same way the chip would see them.
      std::vector<float> x;
      if (in_feature_extractor && cur.shape().h * cur.shape().w != 1) {
        x = to_stream_order(cur);
      } else {
        x.assign(cur.flat().begin(), cur.flat().end());
      }
      in_feature_extractor = false;
      Tensor out(Shape3{fcn.out_count, 1, 1});
      for (std::int64_t j = 0; j < fcn.out_count; ++j) {
        std::int64_t acc = to_raw(fcn.biases[static_cast<std::size_t>(j)], fmt)
                           << fmt.frac_bits;
        for (std::int64_t i = 0; i < fcn.in_count; ++i) {
          acc += to_raw(fcn.weights[static_cast<std::size_t>(j * fcn.in_count + i)], fmt) *
                 to_raw(x[static_cast<std::size_t>(i)], fmt);
        }
        out[j] = mac_result(acc, fmt);
      }
      activate_quantized(fcn.act, out, fmt);
      cur = std::move(out);
    }
  }
  return cur;
}

double weight_quantization_error(const NetworkSpec& spec, FixedFormat fmt) {
  fmt.validate();
  double worst = 0.0;
  auto scan = [&](const std::vector<float>& ws) {
    for (float w : ws) {
      worst = std::max(worst, std::fabs(static_cast<double>(w) - quantize(w, fmt)));
    }
  };
  for (const auto& layer : spec.layers) {
    if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      scan(conv->weights);
      scan(conv->biases);
    } else if (const auto* fcn = std::get_if<FcnLayerSpec>(&layer)) {
      scan(fcn->weights);
      scan(fcn->biases);
    }
  }
  return worst;
}

}  // namespace dfc::quant
