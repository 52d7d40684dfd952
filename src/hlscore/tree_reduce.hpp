// Balanced-tree floating-point reduction.
//
// The computation core feeds multiplier outputs into a tree adder (paper
// Sec. IV-A): the tree halves the pipeline depth contribution of the
// reduction from O(n) sequential adds to O(log2 n) levels. tree_reduce is
// the scalar definition of the pairwise association order the MAC kernels
// (mac_kernel.hpp) reproduce lane by lane, and the reference their tests
// compare against; tree_depth feeds the latency and resource models.
#pragma once

#include <span>

namespace dfc::hls {

/// Sum of `values` using balanced pairwise (tree) association. Empty input
/// sums to 0.
float tree_reduce(std::span<const float> values);

/// Same association order, but reduces in place (the contents of `values`
/// are destroyed). Allocation-free.
float tree_reduce_inplace(std::span<float> values);

/// Number of adder levels of a balanced tree over `n` inputs (= ceil(log2 n),
/// 0 for n <= 1).
int tree_depth(std::size_t n);

}  // namespace dfc::hls
