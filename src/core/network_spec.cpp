#include "core/network_spec.hpp"

#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace dfc::core {

using dfc::verify::Code;
using dfc::verify::Diagnostic;

Shape3 layer_out_shape(const LayerSpec& layer) {
  return std::visit([](const auto& l) { return l.out_shape(); }, layer);
}

int layer_in_ports(const LayerSpec& layer) {
  if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) return conv->in_ports;
  if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) return pool->ports;
  return 1;
}

int layer_out_ports(const LayerSpec& layer) {
  if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) return conv->out_ports;
  if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) return pool->ports;
  return 1;
}

std::string layer_describe(const LayerSpec& layer) {
  std::ostringstream os;
  if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
    os << "conv " << conv->kh << "x" << conv->kw << " " << conv->in_shape.c << "->"
       << conv->out_fm << " on " << conv->in_shape.h << "x" << conv->in_shape.w
       << " stride " << conv->stride;
    if (conv->pad > 0) os << " pad " << conv->pad;
    os << " ports " << conv->in_ports << "/"
       << conv->out_ports << " II=" << conv->initiation_interval() << " act "
       << dfc::hls::activation_name(conv->act);
    if (conv->use_filter_chain) os << " [filter-chain]";
  } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
    os << dfc::hls::pool_mode_name(pool->mode) << "-pool " << pool->kh << "x" << pool->kw
       << " stride " << pool->stride << " ch " << pool->in_shape.c << " on "
       << pool->in_shape.h << "x" << pool->in_shape.w << " cores " << pool->ports;
  } else {
    const auto& fcn = std::get<FcnLayerSpec>(layer);
    os << "fcn " << fcn.in_count << "->" << fcn.out_count << " acc "
       << fcn.num_accumulators << " act " << dfc::hls::activation_name(fcn.act);
  }
  return os.str();
}

Shape3 NetworkSpec::output_shape() const {
  DFC_REQUIRE(!layers.empty(), "network has no layers");
  return layer_out_shape(layers.back());
}

std::vector<Diagnostic> check_spec(const NetworkSpec& spec) {
  std::vector<Diagnostic> out;
  if (spec.layers.empty()) {
    out.push_back({Code::DF101, "network", "network has no layers"});
    return out;
  }

  Shape3 shape = spec.input_shape;
  if (shape.c <= 0 || shape.h <= 0 || shape.w <= 0) {
    out.push_back({Code::DF101, "network", "input shape " + shape.str() + " is not positive"});
    return out;
  }
  // Operator pipeline depths: every core is built with them.
  for (const auto& [field, cycles] : {std::pair{"fmul", spec.latency.fmul},
                                      std::pair{"fadd", spec.latency.fadd}}) {
    if (cycles < 1) {
      out.push_back({Code::DF106, "network", std::string("latency.") + field +
                                                 " must be >= 1 cycle, got " +
                                                 std::to_string(cycles)});
    }
  }

  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    const auto& layer = spec.layers[i];
    const std::string where = "L" + std::to_string(i);
    // Conv and pool: out_shape() divides by the stride, so without one no
    // shape downstream means anything.
    const auto window_ok = [&](const auto& l) {
      if (l.stride <= 0) {
        out.push_back({Code::DF101, where, "stride must be positive, got " +
                                               std::to_string(l.stride)});
        return false;
      }
      if (!(l.in_shape == shape)) {
        out.push_back({Code::DF101, where, "input shape mismatch, expected " + shape.str() +
                                               " got " + l.in_shape.str()});
      }
      return true;
    };
    const auto check_table = [&](const char* table, std::size_t size, std::int64_t want) {
      if (static_cast<std::int64_t>(size) != want) {
        out.push_back({Code::DF103, where, std::string(table) + " table has " +
                                               std::to_string(size) + " entries, expected " +
                                               std::to_string(want)});
      }
    };
    const auto check_activation = [&](Activation act) {
      if (act != Activation::kNone && act != Activation::kRelu && act != Activation::kTanh) {
        out.push_back({Code::DF106, where, "activation " + std::to_string(static_cast<int>(act)) +
                                               " is not none, relu or tanh"});
      }
    };

    if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      if (!window_ok(*conv)) return out;
      check_activation(conv->act);
      if (conv->in_ports <= 0 || conv->out_ports <= 0) {
        out.push_back({Code::DF102, where, "port counts must be positive"});
        shape = conv->out_shape();
        continue;
      }
      if (shape.c % conv->in_ports != 0) {
        out.push_back({Code::DF102, where,
                       "IN_FM (" + std::to_string(shape.c) + ") not divisible by IN_PORTS (" +
                           std::to_string(conv->in_ports) + ")"});
      }
      if (conv->out_fm % conv->out_ports != 0) {
        out.push_back({Code::DF102, where,
                       "OUT_FM (" + std::to_string(conv->out_fm) +
                           ") not divisible by OUT_PORTS (" +
                           std::to_string(conv->out_ports) + ")"});
      }
      check_table("weight", conv->weights.size(),
                  conv->out_fm * conv->in_shape.c * conv->kh * conv->kw);
      check_table("bias", conv->biases.size(), conv->out_fm);
      if (conv->pad > 0 && conv->use_filter_chain) {
        out.push_back({Code::DF104, where,
                       "the element-level filter chain supports only P = 0 "
                       "(zero-padding needs the fused memory structure)"});
      }
      shape = conv->out_shape();
    } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
      if (!window_ok(*pool)) return out;
      if (pool->ports <= 0) {
        out.push_back({Code::DF102, where, "pool core count must be positive"});
        shape = pool->out_shape();
        continue;
      }
      if (shape.c % pool->ports != 0) {
        out.push_back({Code::DF102, where,
                       "channels (" + std::to_string(shape.c) + ") not divisible by cores (" +
                           std::to_string(pool->ports) + ")"});
      }
      shape = pool->out_shape();
    } else {
      const auto& fcn = std::get<FcnLayerSpec>(layer);
      if (fcn.in_count != shape.volume()) {
        out.push_back({Code::DF105, where,
                       "classifier expects " + std::to_string(fcn.in_count) +
                           " inputs but upstream delivers " + std::to_string(shape.volume())});
      }
      check_table("weight", fcn.weights.size(), fcn.in_count * fcn.out_count);
      check_table("bias", fcn.biases.size(), fcn.out_count);
      if (fcn.num_accumulators <= 0) {
        out.push_back({Code::DF106, where, "num_accumulators must be positive, got " +
                                               std::to_string(fcn.num_accumulators)});
      }
      check_activation(fcn.act);
      shape = fcn.out_shape();
    }

    if (shape.c <= 0 || shape.h <= 0 || shape.w <= 0) {
      out.push_back({Code::DF101, where, "output shape " + shape.str() + " is not positive"});
      return out;  // downstream shapes are meaningless
    }

    // Divisibility between consecutive port counts, required by the
    // round-robin interleave (Sec. IV-A).
    if (i > 0) {
      const int up = layer_out_ports(spec.layers[i - 1]);
      const int down = layer_in_ports(layer);
      if (up > 0 && down > 0 &&
          !(up == down || (up < down && down % up == 0) || (up > down && up % down == 0))) {
        out.push_back({Code::DF102, where,
                       "incompatible port counts " + std::to_string(up) + " -> " +
                           std::to_string(down) + " (round-robin interleave needs one to "
                           "divide the other)"});
      }
    }
  }
  return out;
}

void NetworkSpec::validate() const {
  std::vector<Diagnostic> errors = check_spec(*this);  // every DF1xx code is an error
  if (!errors.empty()) throw dfc::verify::VerifyError(std::move(errors));
}

std::int64_t NetworkSpec::flops_per_image() const {
  std::int64_t total = 0;
  for (const LayerSpec& layer : layers) {
    if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      const Shape3 os = conv->out_shape();
      const std::int64_t macs =
          os.plane() * conv->out_fm * conv->in_shape.c * conv->kh * conv->kw;
      total += 2 * macs + os.plane() * conv->out_fm;  // + bias adds
    } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
      if (pool->mode == PoolMode::kMean) {
        const Shape3 os = pool->out_shape();
        total += os.volume() * (pool->kh * pool->kw);  // adds + divide amortized
      }
    } else {
      const auto& fcn = std::get<FcnLayerSpec>(layer);
      total += 2 * fcn.in_count * fcn.out_count + fcn.out_count;
    }
  }
  return total;
}

std::string NetworkSpec::describe() const {
  std::ostringstream os;
  os << "network '" << name << "' input " << input_shape.str() << "\n";
  Shape3 shape = input_shape;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    shape = layer_out_shape(layers[i]);
    os << "  [" << i << "] " << layer_describe(layers[i]) << " -> " << shape.str() << "\n";
  }
  os << "  flops/image: " << flops_per_image() << "\n";
  return os.str();
}

}  // namespace dfc::core
