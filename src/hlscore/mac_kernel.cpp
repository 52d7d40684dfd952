#include "hlscore/mac_kernel.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace dfc::hls {

namespace {

// kMacLanes floats as one GCC vector-extension value. On baseline x86-64
// (SSE2, no -mavx) every operation lowers to two 128-bit instructions; lane l
// of `a * b` or `a + b` is the IEEE float operation on lane l alone.
typedef float Lanes __attribute__((vector_size(kMacLanes * sizeof(float))));

// The weight and accumulator buffers are plain float vectors, so vectors
// move in and out through memcpy (an unaligned load/store).
void load(Lanes& v, const float* p) { std::memcpy(&v, p, sizeof(Lanes)); }
void store(float* p, const Lanes& v) { std::memcpy(p, &v, sizeof(Lanes)); }

// Balanced pairwise adder fed one subtree at a time, in tree_reduce's exact
// association. Every level of tree_reduce pairs neighbours inside aligned
// power-of-two blocks and carries an odd last element up, so its tree is:
// the largest power-of-two block strictly smaller than n, plus the tree of
// the rest. The same tree results when leaves arrive in order, each one
// joining the completed subtrees to its left (one per trailing one bit of
// its index), and the subtrees still open at the end (one per set bit of n,
// largest first) are joined right to left.
class PairwiseTree {
 public:
  /// Adds the subtree with this index among equal-sized aligned subtrees.
  void add(const Lanes& subtree, std::uint64_t index) {
    Lanes v = subtree;
    for (; (index & 1U) != 0; index >>= 1) v = open_[--depth_] + v;
    open_[depth_++] = v;
  }

  /// Adds a subtree smaller than every one before it: it joins nothing yet.
  void open(const Lanes& subtree) { open_[depth_++] = subtree; }

  void sum(Lanes& out) const {
    out = open_[depth_ - 1];
    for (int d = depth_ - 2; d >= 0; --d) out = open_[d] + out;
  }

 private:
  Lanes open_[64];  // open subtrees, largest (leftmost) first
  int depth_ = 0;
};

// The balanced tree over kLeaves (a power of two) weight*input products,
// held in registers: leaves w[n*kMacLanes..] * x[n].
template <int kLeaves>
[[gnu::always_inline]] inline void product_tree(const float* w, const float* x, Lanes& out) {
  if constexpr (kLeaves == 1) {
    load(out, w);
    out *= x[0];
  } else {
    constexpr int kHalf = kLeaves / 2;
    Lanes right;
    product_tree<kHalf>(w, x, out);
    product_tree<kHalf>(w + kHalf * kMacLanes, x + kHalf, right);
    out += right;
  }
}

// Multiplies `count` leaves and sums them in tree_reduce's association.
// Whole blocks of 8 leaves are reduced in registers; the 4-, 2- and 1-leaf
// subtrees of the remainder follow, each smaller than the last.
void product_sum(const float* w, const float* x, std::int64_t count, Lanes& out) {
  constexpr int kBlock = 8;
  PairwiseTree tree;
  Lanes v;
  std::int64_t n = 0;
  for (; n + kBlock <= count; n += kBlock) {
    product_tree<kBlock>(w + n * kMacLanes, x + n, v);
    tree.add(v, static_cast<std::uint64_t>(n / kBlock));
  }
  if (count - n >= 4) {
    product_tree<4>(w + n * kMacLanes, x + n, v);
    tree.open(v);
    n += 4;
  }
  if (count - n >= 2) {
    product_tree<2>(w + n * kMacLanes, x + n, v);
    tree.open(v);
    n += 2;
  }
  if (count - n == 1) {
    product_tree<1>(w + n * kMacLanes, x + n, v);
    tree.open(v);
  }
  tree.sum(out);
}

}  // namespace

ConvMacKernel::ConvMacKernel(std::int64_t in_fm, std::int64_t out_fm, int in_ports,
                             std::int64_t taps, std::span<const float> weights,
                             std::span<const float> biases) {
  DFC_REQUIRE(in_fm >= 1 && out_fm >= 1 && in_ports >= 1 && taps >= 1,
              "conv MAC kernel dimensions must be >= 1");
  DFC_REQUIRE(in_fm % in_ports == 0, "IN_FM must be a multiple of IN_PORTS");
  DFC_REQUIRE(static_cast<std::int64_t>(weights.size()) == out_fm * in_fm * taps,
              "conv weights size mismatch");
  DFC_REQUIRE(static_cast<std::int64_t>(biases.size()) == out_fm, "conv biases size mismatch");
  groups_ = in_fm / in_ports;
  out_fm_ = out_fm;
  blocks_ = ceil_div(out_fm, kMacLanes);
  products_ = in_ports * taps;
  weights_.assign(static_cast<std::size_t>(groups_ * blocks_ * products_ * kMacLanes), 0.0f);
  for (std::int64_t k = 0; k < out_fm; ++k) {
    for (std::int64_t c = 0; c < in_fm; ++c) {
      // Channel c arrives on port c % IN_PORTS in gather beat c / IN_PORTS.
      const std::int64_t group = c / in_ports;
      const std::int64_t first_product = (c % in_ports) * taps;
      for (std::int64_t t = 0; t < taps; ++t) {
        const std::int64_t n = first_product + t;
        weights_[static_cast<std::size_t>(
            ((group * blocks_ + k / kMacLanes) * products_ + n) * kMacLanes + k % kMacLanes)] =
            weights[static_cast<std::size_t>((k * in_fm + c) * taps + t)];
      }
    }
  }
  biases_.assign(biases.begin(), biases.end());
}

void ConvMacKernel::seed(std::span<float> acc) const {
  DFC_ASSERT(static_cast<std::int64_t>(acc.size()) == out_fm_, "accumulator size mismatch");
  std::copy(biases_.begin(), biases_.end(), acc.begin());
}

void ConvMacKernel::beat(std::int64_t group, std::span<const float> x,
                         std::span<float> acc) const {
  DFC_ASSERT(group >= 0 && group < groups_, "gather beat out of range");
  DFC_ASSERT(static_cast<std::int64_t>(x.size()) == products_, "beat input size mismatch");
  DFC_ASSERT(static_cast<std::int64_t>(acc.size()) == out_fm_, "accumulator size mismatch");
  const float* w = weights_.data() + group * blocks_ * products_ * kMacLanes;
  for (std::int64_t b = 0; b < blocks_; ++b, w += products_ * kMacLanes) {
    Lanes sum;
    product_sum(w, x.data(), products_, sum);
    const std::int64_t first = b * kMacLanes;
    const std::int64_t valid = std::min(kMacLanes, out_fm_ - first);
    for (std::int64_t l = 0; l < valid; ++l) acc[static_cast<std::size_t>(first + l)] += sum[l];
  }
}

FcnMacKernel::FcnMacKernel(std::int64_t in_count, std::int64_t out_count, int num_accumulators,
                           std::span<const float> weights, std::span<const float> biases) {
  DFC_REQUIRE(in_count >= 1 && out_count >= 1, "FCN sizes must be >= 1");
  DFC_REQUIRE(num_accumulators >= 1, "need at least one accumulator lane");
  DFC_REQUIRE(static_cast<std::int64_t>(weights.size()) == in_count * out_count,
              "FCN weights size mismatch");
  DFC_REQUIRE(static_cast<std::int64_t>(biases.size()) == out_count, "FCN biases size mismatch");
  in_count_ = in_count;
  out_count_ = out_count;
  lanes_ = num_accumulators;
  blocks_ = ceil_div(out_count, kMacLanes);
  weights_.assign(static_cast<std::size_t>(in_count * blocks_ * kMacLanes), 0.0f);
  for (std::int64_t j = 0; j < out_count; ++j) {
    for (std::int64_t i = 0; i < in_count; ++i) {
      weights_[static_cast<std::size_t>(i * blocks_ * kMacLanes + j)] =
          weights[static_cast<std::size_t>(j * in_count + i)];
    }
  }
  biases_.assign(static_cast<std::size_t>(blocks_ * kMacLanes), 0.0f);
  std::copy(biases.begin(), biases.end(), biases_.begin());
}

std::size_t FcnMacKernel::acc_size() const {
  return static_cast<std::size_t>(blocks_ * lanes_ * kMacLanes);
}

void FcnMacKernel::seed(std::span<float> acc) const {
  DFC_ASSERT(acc.size() == acc_size(), "accumulator size mismatch");
  std::fill(acc.begin(), acc.end(), 0.0f);
  for (std::int64_t b = 0; b < blocks_; ++b) {
    std::copy_n(biases_.data() + b * kMacLanes, kMacLanes,
                acc.data() + b * lanes_ * kMacLanes);  // lane 0 of block b
  }
}

void FcnMacKernel::accumulate(std::int64_t first, std::span<const float> x,
                              std::span<float> acc) const {
  const auto count = static_cast<std::int64_t>(x.size());
  DFC_ASSERT(first >= 0 && first + count <= in_count_, "FCN input index out of range");
  DFC_ASSERT(acc.size() == acc_size(), "accumulator size mismatch");
  // Each accumulator lane still adds its inputs in stream order, so visiting
  // the stream lane by lane, with the lane's partial sums held in a
  // register, changes no bit.
  for (std::int64_t offset = 0; offset < std::min(lanes_, count); ++offset) {
    const std::int64_t lane = (first + offset) % lanes_;
    for (std::int64_t b = 0; b < blocks_; ++b) {
      float* slot = acc.data() + (b * lanes_ + lane) * kMacLanes;
      Lanes a;
      load(a, slot);
      for (std::int64_t i = offset; i < count; i += lanes_) {
        Lanes wv;
        load(wv, weights_.data() + ((first + i) * blocks_ + b) * kMacLanes);
        a += wv * x[static_cast<std::size_t>(i)];
      }
      store(slot, a);
    }
  }
}

void FcnMacKernel::drain(std::span<const float> acc, std::span<float> out) const {
  DFC_ASSERT(acc.size() == acc_size(), "accumulator size mismatch");
  DFC_ASSERT(static_cast<std::int64_t>(out.size()) == out_count_, "output size mismatch");
  for (std::int64_t b = 0; b < blocks_; ++b) {
    PairwiseTree tree;
    for (std::int64_t lane = 0; lane < lanes_; ++lane) {
      Lanes v;
      load(v, acc.data() + (b * lanes_ + lane) * kMacLanes);
      tree.add(v, static_cast<std::uint64_t>(lane));
    }
    Lanes sum;
    tree.sum(sum);
    const std::int64_t first = b * kMacLanes;
    const std::int64_t valid = std::min(kMacLanes, out_count_ - first);
    for (std::int64_t l = 0; l < valid; ++l) out[static_cast<std::size_t>(first + l)] = sum[l];
  }
}

}  // namespace dfc::hls
