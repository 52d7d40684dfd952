// Bit-exact functional forward pass over a NetworkSpec.
//
// The compiled-schedule fast path (core/schedule.hpp) replays timing from a
// static schedule and needs the logits from somewhere other than the cycle
// engine. Conv and FCN layers evaluate through the same MAC kernels the
// simulated cores call (hlscore/mac_kernel.hpp), fed in the cores' stream
// order; pooling folds taps in the pool core's order. Its outputs are
// therefore bit-identical to what the DmaSink collects, not merely close.
// The equivalence suite (tests/test_schedule.cpp) enforces that bit-identity
// on every example design.
//
// Sweeps and serving replay the same images against the same design many
// times (one harness per batch point, sliced from one shared image set), so
// the model memoizes logits behind an exact content match — a hash of the
// image's 64-bit words, confirmed by comparing every input byte, never a
// fuzzy key — and shared_functional_model() shares one model (and thus one
// memo) across all harnesses of identical designs, mirroring the schedule
// cache.
//
// A batch is one call, infer_batch(); infer() is its one-image case. The
// calling thread owns the memo: it hashes every image, does every lookup,
// folds images that repeat within the batch into one computation and, after
// the forward passes, inserts the results in index order. Only the distinct
// misses fan out, over dfc::run_indexed workers (DFCNN_SWEEP_THREADS); the
// workers touch no memo state, so its image copies stay in the caller's
// allocator arena. Called from a pool worker (a sweep point, a serve
// replica), the misses run inline: one fan-out level.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/network_spec.hpp"
#include "hlscore/mac_kernel.hpp"
#include "tensor/tensor.hpp"

namespace dfc::core {

class FunctionalModel {
 public:
  /// Copies what it needs from `spec`. Throws ConfigError on invalid specs.
  explicit FunctionalModel(const NetworkSpec& spec);

  /// Runs every image through every layer and returns, per image, the values
  /// in DMA sink order: the output volume streamed pixel-major with channels
  /// interleaved (which for an FCN tail is simply the logit vector). Memo
  /// hits and in-batch repeats are not recomputed; the distinct misses run
  /// on the sweep workers. Bit-identical to infer() on each image in turn.
  /// Thread-safe.
  std::vector<std::vector<float>> infer_batch(std::span<const Tensor> images) const;

  /// infer_batch() of one image.
  std::vector<float> infer(const Tensor& image) const;

  /// Images whose logits are currently memoized.
  std::size_t memo_size() const;

 private:
  struct MemoEntry {
    std::vector<float> image;  ///< full input, compared bit-for-bit
    std::vector<float> logits;
  };

  std::vector<float> infer_uncached(const Tensor& image) const;
  Tensor eval_conv(const ConvLayerSpec& conv, const hls::ConvMacKernel& kernel,
                   const Tensor& in) const;
  Tensor eval_pool(const PoolLayerSpec& pool, const Tensor& in) const;
  Tensor eval_fcn(const FcnLayerSpec& fcn, const hls::FcnMacKernel& kernel,
                  const Tensor& in) const;

  NetworkSpec spec_;  ///< shapes and activations; weights and biases live in the kernels
  // One kernel per conv / FCN layer, in layer order (immutable after
  // construction, so infer() needs no lock for them).
  std::vector<hls::ConvMacKernel> conv_kernels_;
  std::vector<hls::FcnMacKernel> fcn_kernels_;

  // Bounded logits memo (see kMemoCapacity in the .cpp): hash buckets hold
  // full image copies, so a hit requires exact content equality.
  std::size_t memo_capacity_ = 0;  ///< images held before the memo resets
  mutable std::mutex memo_mutex_;
  mutable std::unordered_map<std::uint64_t, std::vector<MemoEntry>> memo_;
  mutable std::size_t memo_entries_ = 0;
};

/// Process-wide memoized model lookup keyed on the full network content
/// (structure, weights and biases): harnesses of identical designs share one
/// model and its logits memo. Thread-safe.
std::shared_ptr<const FunctionalModel> shared_functional_model(const NetworkSpec& spec);

/// Drops every cached model (tests; frees the memoized logits).
void clear_functional_model_cache();

}  // namespace dfc::core
