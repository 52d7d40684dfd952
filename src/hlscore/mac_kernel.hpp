// Lane-parallel multiply-accumulate kernels of the conv and FCN cores.
//
// The conv core reduces each gather beat through a tree adder for every
// output FM in parallel (paper Sec. IV-A, Algorithm 1); the FCN core spreads
// its input stream over interleaved accumulator lanes and drains them
// through a tree (Sec. IV-B). Both engines evaluate through these kernels:
// the cycle-accurate cores (ConvCore, FcnCore) and the compiled path's
// FunctionalModel, so the floating-point evaluation order has one
// definition.
//
// Each kernel re-lays its weights once, at construction, so that a block of
// kMacLanes adjacent output FMs (conv) or outputs (FCN) is contiguous and is
// computed as one vector (output-FM unrolling). Every lane performs exactly
// the scalar sequence of IEEE single-precision operations of one output —
// multiply, tree_reduce's pairwise levels with the odd element carried up,
// accumulate — so results are bit-identical to the scalar reference
// (tests/test_hlscore.cpp compares them bitwise). The library is compiled
// with -ffp-contract=off so a multiply and the add after it are never fused
// into one FMA, which would round once instead of twice.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace dfc::hls {

/// Output FMs (conv) or outputs (FCN) computed together in one vector.
inline constexpr std::int64_t kMacLanes = 8;

class ConvMacKernel {
 public:
  /// `weights` laid out [out_fm][in_fm][taps]; one bias per output FM.
  /// Throws ConfigError on inconsistent shapes.
  ConvMacKernel(std::int64_t in_fm, std::int64_t out_fm, int in_ports, std::int64_t taps,
                std::span<const float> weights, std::span<const float> biases);

  /// Values one gather beat reads: IN_PORTS windows of `taps` taps.
  std::int64_t beat_inputs() const { return products_; }

  /// Loads every output FM's bias into `acc` (out_fm values): the
  /// partial-sum registers at the start of an output position.
  void seed(std::span<float> acc) const;

  /// Gather beat `group`, whose port p carries input channel
  /// group*IN_PORTS + p: `x` holds port p's window at [p*taps, (p+1)*taps)
  /// in row-major tap order. For every output FM k, multiplies the beat's
  /// products, sums them in tree_reduce's association and adds the sum onto
  /// acc[k].
  void beat(std::int64_t group, std::span<const float> x, std::span<float> acc) const;

 private:
  std::int64_t groups_ = 0;
  std::int64_t out_fm_ = 0;
  std::int64_t blocks_ = 0;
  std::int64_t products_ = 0;
  std::vector<float> weights_;  ///< [group][block][product][lane], zero past out_fm
  std::vector<float> biases_;
};

class FcnMacKernel {
 public:
  /// `weights` laid out [out][in]; one bias per output. Throws ConfigError on
  /// inconsistent shapes.
  FcnMacKernel(std::int64_t in_count, std::int64_t out_count, int num_accumulators,
               std::span<const float> weights, std::span<const float> biases);

  /// Floats of accumulator state one image needs. The caller owns it, so the
  /// kernel stays immutable and can be shared across threads.
  std::size_t acc_size() const;

  /// Lane 0 of every output starts from its bias, the other lanes from zero.
  void seed(std::span<float> acc) const;

  /// Accumulates the stream values `x` as inputs first, first+1, ...: input
  /// i adds weight[j][i] * x onto accumulator lane i % num_accumulators of
  /// every output j.
  void accumulate(std::int64_t first, std::span<const float> x, std::span<float> acc) const;

  /// Sums each output's accumulator lanes in tree_reduce's association into
  /// out[j] (out_count values).
  void drain(std::span<const float> acc, std::span<float> out) const;

 private:
  std::int64_t in_count_ = 0;
  std::int64_t out_count_ = 0;
  std::int64_t lanes_ = 0;  ///< interleaved accumulators per output
  std::int64_t blocks_ = 0;
  std::vector<float> weights_;  ///< [in][block][lane], zero past out_count
  std::vector<float> biases_;   ///< [block][lane], zero past out_count
};

}  // namespace dfc::hls
