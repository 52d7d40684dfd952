// Deployable network description (the paper's "network design").
//
// A NetworkSpec is the design-time artifact of the methodology: the ordered
// list of layer modules with their shapes, port counts and hard-coded
// weights. It is produced by compiling a trained nn::Sequential against a
// PortPlan (core/compile.hpp), consumed by the accelerator builder
// (core/builder.hpp), the resource model (hwmodel), the block-design export
// (Figs. 4/5) and the FLOP counter.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "hlscore/activation.hpp"
#include "hlscore/op_latency.hpp"
#include "hlscore/pool_core.hpp"
#include "tensor/tensor.hpp"
#include "verify/diagnostics.hpp"

namespace dfc::core {

using dfc::hls::Activation;
using dfc::hls::OpLatency;
using dfc::hls::PoolMode;

struct ConvLayerSpec {
  Shape3 in_shape;  ///< input volume of this layer
  std::int64_t out_fm = 1;
  int kh = 1, kw = 1;
  int stride = 1;
  int pad = 0;  ///< symmetric zero-padding (fused memory structure only)
  int in_ports = 1;
  int out_ports = 1;
  Activation act = Activation::kNone;
  std::vector<float> weights;  ///< [out_fm][in_fm][kh*kw]
  std::vector<float> biases;
  bool use_filter_chain = false;  ///< element-level SST instead of fused buffer

  Shape3 out_shape() const {
    return Shape3{out_fm, (in_shape.h + 2 * pad - kh) / stride + 1,
                  (in_shape.w + 2 * pad - kw) / stride + 1};
  }
  std::int64_t initiation_interval() const {
    return std::max(out_fm / out_ports, in_shape.c / in_ports);
  }
};

struct PoolLayerSpec {
  Shape3 in_shape;
  PoolMode mode = PoolMode::kMax;
  int kh = 2, kw = 2;
  int stride = 2;
  int ports = 1;  ///< parallel pool cores, one per upstream port
  bool use_filter_chain = false;

  Shape3 out_shape() const {
    return Shape3{in_shape.c, (in_shape.h - kh) / stride + 1, (in_shape.w - kw) / stride + 1};
  }
};

struct FcnLayerSpec {
  std::int64_t in_count = 1;
  std::int64_t out_count = 1;
  Activation act = Activation::kNone;
  int num_accumulators = 11;
  std::vector<float> weights;  ///< [out][in], already in stream order
  std::vector<float> biases;

  Shape3 out_shape() const { return Shape3{out_count, 1, 1}; }
};

using LayerSpec = std::variant<ConvLayerSpec, PoolLayerSpec, FcnLayerSpec>;

/// Output shape of any layer spec.
Shape3 layer_out_shape(const LayerSpec& layer);

/// Input ports the layer exposes (pool: `ports`, fcn: 1).
int layer_in_ports(const LayerSpec& layer);

/// Output ports the layer exposes.
int layer_out_ports(const LayerSpec& layer);

/// Human-readable one-line summary ("conv 5x5 6->16 ports 6/1 II=16").
std::string layer_describe(const LayerSpec& layer);

struct NetworkSpec {
  std::string name;
  Shape3 input_shape{};
  std::vector<LayerSpec> layers;
  OpLatency latency{};

  std::size_t size() const { return layers.size(); }
  Shape3 output_shape() const;

  /// Number of classifier outputs (volume of the last layer's output).
  std::int64_t num_outputs() const { return output_shape().volume(); }

  /// Throws verify::VerifyError (a ConfigError) carrying every error
  /// check_spec() finds; no-op on a legal spec.
  void validate() const;

  /// Floating-point operations per image: 2*MACs + bias adds for conv/fcn,
  /// adds for mean pooling (max pooling performs comparisons, not FLOPs).
  std::int64_t flops_per_image() const;

  /// Multiline description of the whole design.
  std::string describe() const;
};

/// The spec rules (DF1xx), one diagnostic per problem found (empty for a
/// legal spec): validate() throws them, the static verifier reports them.
std::vector<dfc::verify::Diagnostic> check_spec(const NetworkSpec& spec);

}  // namespace dfc::core
