#include "hlscore/tree_reduce.hpp"

#include <vector>

namespace dfc::hls {

float tree_reduce_inplace(std::span<float> values) {
  if (values.empty()) return 0.0f;
  std::size_t n = values.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    for (std::size_t i = 0; i < half; ++i) {
      values[i] = values[2 * i] + values[2 * i + 1];
    }
    if (n % 2 == 1) {
      values[half] = values[n - 1];
      n = half + 1;
    } else {
      n = half;
    }
  }
  return values[0];
}

float tree_reduce(std::span<const float> values) {
  std::vector<float> level(values.begin(), values.end());
  return tree_reduce_inplace(level);
}

int tree_depth(std::size_t n) {
  int depth = 0;
  while (n > 1) {
    n = (n + 1) / 2;
    ++depth;
  }
  return depth;
}

}  // namespace dfc::hls
