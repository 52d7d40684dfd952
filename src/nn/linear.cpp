#include "nn/linear.hpp"

#include <cmath>

namespace dfc::nn {

Linear::Linear(std::int64_t in_count, std::int64_t out_count, Activation act)
    : in_count_(in_count),
      out_count_(out_count),
      act_(act),
      weights_(static_cast<std::size_t>(in_count * out_count), 0.0f),
      biases_(static_cast<std::size_t>(out_count), 0.0f),
      grad_weights_(weights_.size(), 0.0f),
      grad_biases_(biases_.size(), 0.0f) {
  DFC_REQUIRE(in_count >= 1 && out_count >= 1, "linear sizes must be >= 1");
}

void Linear::init_weights(Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in_count_));
  for (auto& v : weights_) v = rng.uniform(-bound, bound);
  for (auto& v : biases_) v = 0.0f;
}

Shape3 Linear::output_shape(const Shape3& in) const {
  DFC_REQUIRE(in.volume() == in_count_,
              "linear input size mismatch: " + in.str() + " vs " + std::to_string(in_count_));
  return Shape3{out_count_, 1, 1};
}

Tensor Linear::run_forward(const Tensor& in, Tensor* pre_act) const {
  (void)output_shape(in.shape());
  Tensor out(Shape3{out_count_, 1, 1});
  const auto x = in.flat();
  for (std::int64_t j = 0; j < out_count_; ++j) {
    float sum = biases_[static_cast<std::size_t>(j)];
    const float* wj = &weights_[static_cast<std::size_t>(j * in_count_)];
    for (std::int64_t i = 0; i < in_count_; ++i) {
      sum += wj[i] * x[static_cast<std::size_t>(i)];
    }
    out[j] = sum;
  }
  if (pre_act != nullptr) *pre_act = out;
  dfc::hls::apply_activation(act_, out.flat());
  return out;
}

Tensor Linear::infer(const Tensor& in) const { return run_forward(in, nullptr); }

Tensor Linear::forward(const Tensor& in) {
  cached_in_ = in;
  cached_pre_act_ = Tensor(Shape3{out_count_, 1, 1});
  return run_forward(in, &cached_pre_act_);
}

Tensor Linear::backward(const Tensor& grad_out) {
  DFC_REQUIRE(grad_out.size() == out_count_, "linear backward size mismatch");
  Tensor grad_in(cached_in_.shape(), 0.0f);
  const auto x = cached_in_.flat();
  auto gin = grad_in.flat();
  Tensor tanh_z;  // tanh of every pre-activation value, for tanh' = 1 - tanh^2
  if (act_ == Activation::kTanh) {
    tanh_z = cached_pre_act_;
    dfc::hls::apply_activation(act_, tanh_z.flat());
  }
  for (std::int64_t j = 0; j < out_count_; ++j) {
    float g = grad_out[j];
    const float z = cached_pre_act_[j];
    switch (act_) {
      case Activation::kNone: break;
      case Activation::kRelu: g = z > 0.0f ? g : 0.0f; break;
      case Activation::kTanh: {
        const float t = tanh_z[j];
        g *= 1.0f - t * t;
        break;
      }
    }
    if (g == 0.0f) continue;
    grad_biases_[static_cast<std::size_t>(j)] += g;
    const float* wj = &weights_[static_cast<std::size_t>(j * in_count_)];
    float* gwj = &grad_weights_[static_cast<std::size_t>(j * in_count_)];
    for (std::int64_t i = 0; i < in_count_; ++i) {
      gwj[i] += g * x[static_cast<std::size_t>(i)];
      gin[static_cast<std::size_t>(i)] += g * wj[i];
    }
  }
  return grad_in;
}

void Linear::zero_grad() {
  std::fill(grad_weights_.begin(), grad_weights_.end(), 0.0f);
  std::fill(grad_biases_.begin(), grad_biases_.end(), 0.0f);
}

void Linear::sgd_step(float lr, float momentum) {
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

std::string Linear::describe() const {
  return "linear " + std::to_string(in_count_) + "->" + std::to_string(out_count_) + " act " +
         dfc::hls::activation_name(act_);
}

}  // namespace dfc::nn
