#include "nn/conv2d.hpp"

#include <cmath>

namespace dfc::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels, int kh, int kw,
               int stride, Activation act, int padding)
    : in_c_(in_channels),
      out_c_(out_channels),
      kh_(kh),
      kw_(kw),
      stride_(stride),
      pad_(padding),
      act_(act),
      weights_(static_cast<std::size_t>(in_channels * out_channels * kh * kw), 0.0f),
      biases_(static_cast<std::size_t>(out_channels), 0.0f),
      grad_weights_(weights_.size(), 0.0f),
      grad_biases_(biases_.size(), 0.0f) {
  DFC_REQUIRE(in_channels >= 1 && out_channels >= 1, "conv channel counts must be >= 1");
  DFC_REQUIRE(kh >= 1 && kw >= 1 && stride >= 1, "conv window/stride must be >= 1");
  DFC_REQUIRE(padding >= 0 && padding < kh && padding < kw,
              "conv padding must be smaller than the window");
}

void Conv2d::init_weights(Rng& rng) {
  const float fan_in = static_cast<float>(in_c_ * kh_ * kw_);
  const float bound = std::sqrt(6.0f / fan_in);
  for (auto& v : weights_) v = rng.uniform(-bound, bound);
  for (auto& v : biases_) v = 0.0f;
}

Shape3 Conv2d::output_shape(const Shape3& in) const {
  DFC_REQUIRE(in.c == in_c_, "conv input channels mismatch: " + in.str());
  DFC_REQUIRE(in.h + 2 * pad_ >= kh_ && in.w + 2 * pad_ >= kw_,
              "conv input smaller than window: " + in.str());
  return Shape3{out_c_, (in.h + 2 * pad_ - kh_) / stride_ + 1,
                (in.w + 2 * pad_ - kw_) / stride_ + 1};
}

Tensor Conv2d::run_forward(const Tensor& in, Tensor* pre_act) const {
  const Shape3 is = in.shape();
  const Shape3 os = output_shape(is);
  Tensor out(os);
  for (std::int64_t k = 0; k < out_c_; ++k) {
    for (std::int64_t oy = 0; oy < os.h; ++oy) {
      for (std::int64_t ox = 0; ox < os.w; ++ox) {
        float sum = biases_[static_cast<std::size_t>(k)];
        for (std::int64_t c = 0; c < in_c_; ++c) {
          for (int dy = 0; dy < kh_; ++dy) {
            const std::int64_t iy = oy * stride_ + dy - pad_;
            if (iy < 0 || iy >= is.h) continue;
            for (int dx = 0; dx < kw_; ++dx) {
              const std::int64_t ix = ox * stride_ + dx - pad_;
              if (ix < 0 || ix >= is.w) continue;
              sum += w(k, c, dy, dx) * in.at(c, iy, ix);
            }
          }
        }
        out.at(k, oy, ox) = sum;
      }
    }
  }
  if (pre_act != nullptr) *pre_act = out;
  dfc::hls::apply_activation(act_, out.flat());
  return out;
}

Tensor Conv2d::infer(const Tensor& in) const { return run_forward(in, nullptr); }

Tensor Conv2d::forward(const Tensor& in) {
  cached_in_ = in;
  cached_pre_act_ = Tensor(output_shape(in.shape()));
  return run_forward(in, &cached_pre_act_);
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const Shape3 os = grad_out.shape();
  DFC_REQUIRE(os == cached_pre_act_.shape(), "conv backward shape mismatch");
  const Shape3 is = cached_in_.shape();
  Tensor grad_in(is, 0.0f);
  Tensor tanh_z;  // tanh of every pre-activation value, for tanh' = 1 - tanh^2
  if (act_ == Activation::kTanh) {
    tanh_z = cached_pre_act_;
    dfc::hls::apply_activation(act_, tanh_z.flat());
  }

  for (std::int64_t k = 0; k < out_c_; ++k) {
    for (std::int64_t oy = 0; oy < os.h; ++oy) {
      for (std::int64_t ox = 0; ox < os.w; ++ox) {
        float g = grad_out.at(k, oy, ox);
        // Activation derivative at the pre-activation value.
        const float z = cached_pre_act_.at(k, oy, ox);
        switch (act_) {
          case Activation::kNone: break;
          case Activation::kRelu: g = z > 0.0f ? g : 0.0f; break;
          case Activation::kTanh: {
            const float t = tanh_z.at(k, oy, ox);
            g *= 1.0f - t * t;
            break;
          }
        }
        if (g == 0.0f) continue;
        grad_biases_[static_cast<std::size_t>(k)] += g;
        for (std::int64_t c = 0; c < in_c_; ++c) {
          for (int dy = 0; dy < kh_; ++dy) {
            const std::int64_t iy = oy * stride_ + dy - pad_;
            if (iy < 0 || iy >= is.h) continue;
            for (int dx = 0; dx < kw_; ++dx) {
              const std::int64_t ix = ox * stride_ + dx - pad_;
              if (ix < 0 || ix >= is.w) continue;
              grad_weights_[static_cast<std::size_t>(((k * in_c_ + c) * kh_ + dy) * kw_ + dx)] +=
                  g * cached_in_.at(c, iy, ix);
              grad_in.at(c, iy, ix) += g * w(k, c, dy, dx);
            }
          }
        }
      }
    }
  }
  return grad_in;
}

void Conv2d::zero_grad() {
  std::fill(grad_weights_.begin(), grad_weights_.end(), 0.0f);
  std::fill(grad_biases_.begin(), grad_biases_.end(), 0.0f);
}

void Conv2d::sgd_step(float lr, float momentum) {
  if (momentum != 0.0f && vel_weights_.empty()) {
    vel_weights_.assign(weights_.size(), 0.0f);
    vel_biases_.assign(biases_.size(), 0.0f);
  }
  if (momentum == 0.0f) {
    for (std::size_t i = 0; i < weights_.size(); ++i) weights_[i] -= lr * grad_weights_[i];
    for (std::size_t i = 0; i < biases_.size(); ++i) biases_[i] -= lr * grad_biases_[i];
    return;
  }
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    vel_weights_[i] = momentum * vel_weights_[i] + grad_weights_[i];
    weights_[i] -= lr * vel_weights_[i];
  }
  for (std::size_t i = 0; i < biases_.size(); ++i) {
    vel_biases_[i] = momentum * vel_biases_[i] + grad_biases_[i];
    biases_[i] -= lr * vel_biases_[i];
  }
}

std::string Conv2d::describe() const {
  std::string s = "conv " + std::to_string(kh_) + "x" + std::to_string(kw_) + " " +
                  std::to_string(in_c_) + "->" + std::to_string(out_c_) + " stride " +
                  std::to_string(stride_);
  if (pad_ > 0) s += " pad " + std::to_string(pad_);
  return s + " act " + dfc::hls::activation_name(act_);
}

}  // namespace dfc::nn
