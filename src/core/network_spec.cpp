#include "core/network_spec.hpp"

#include <sstream>

#include "common/error.hpp"

namespace dfc::core {

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

void NetworkSpec::validate() const {
  DFC_REQUIRE(!layers.empty(), "network has no layers");
  Shape3 shape = input_shape;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const LayerSpec& layer = layers[i];
    // layer_describe() and out_shape() divide by these; check them first.
    auto require_positive = [i](int value, const char* field) {
      DFC_REQUIRE(value > 0, "layer " + std::to_string(i) + ": " + field +
                                 " must be positive, got " + std::to_string(value));
    };
    if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      require_positive(conv->in_ports, "conv in_ports");
      require_positive(conv->out_ports, "conv out_ports");
      require_positive(conv->stride, "conv stride");
    } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
      require_positive(pool->ports, "pool ports");
      require_positive(pool->stride, "pool stride");
    }
    const std::string where = "layer " + std::to_string(i) + " (" + layer_describe(layer) + ")";
    if (const auto* conv = std::get_if<ConvLayerSpec>(&layer)) {
      DFC_REQUIRE(conv->in_shape == shape, where + ": input shape mismatch, expected " +
                                               shape.str() + " got " + conv->in_shape.str());
      DFC_REQUIRE(shape.c % conv->in_ports == 0, where + ": IN_FM not divisible by IN_PORTS");
      DFC_REQUIRE(conv->out_fm % conv->out_ports == 0,
                  where + ": OUT_FM not divisible by OUT_PORTS");
      DFC_REQUIRE(static_cast<std::int64_t>(conv->weights.size()) ==
                      conv->out_fm * shape.c * conv->kh * conv->kw,
                  where + ": weight size mismatch");
      DFC_REQUIRE(static_cast<std::int64_t>(conv->biases.size()) == conv->out_fm,
                  where + ": bias size mismatch");
      DFC_REQUIRE(!(conv->pad > 0 && conv->use_filter_chain),
                  where + ": the element-level filter chain supports only P = 0");
    } else if (const auto* pool = std::get_if<PoolLayerSpec>(&layer)) {
      DFC_REQUIRE(pool->in_shape == shape, where + ": input shape mismatch, expected " +
                                               shape.str() + " got " + pool->in_shape.str());
      DFC_REQUIRE(shape.c % pool->ports == 0, where + ": channels not divisible by cores");
    } else {
      const auto& fcn = std::get<FcnLayerSpec>(layer);
      DFC_REQUIRE(fcn.in_count == shape.volume(),
                  where + ": input count mismatch, expected " + std::to_string(shape.volume()));
      DFC_REQUIRE(static_cast<std::int64_t>(fcn.weights.size()) == fcn.in_count * fcn.out_count,
                  where + ": weight size mismatch");
      DFC_REQUIRE(static_cast<std::int64_t>(fcn.biases.size()) == fcn.out_count,
                  where + ": bias size mismatch");
    }
    // Port-count adapters exist for every </=/> combination, but divisibility
    // between consecutive port counts is required by the round-robin
    // interleave (Sec. IV-A).
    if (i > 0) {
      const int up = layer_out_ports(layers[i - 1]);
      const int down = layer_in_ports(layer);
      DFC_REQUIRE(up == down || (up < down && down % up == 0) || (up > down && up % down == 0),
                  where + ": incompatible port counts " + std::to_string(up) + " -> " +
                      std::to_string(down));
    }
    shape = layer_out_shape(layer);
  }
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
