// Tests for the synthetic dataset generators.
#include <gtest/gtest.h>

#include <set>

#include "data/synthetic.hpp"

namespace dfc::data {
namespace {

TEST(UspsLikeTest, ShapesAndLabels) {
  const Dataset ds = make_usps_like(64);
  EXPECT_EQ(ds.size(), 64u);
  EXPECT_EQ(ds.num_classes, 10);
  EXPECT_EQ(ds.image_shape(), (Shape3{1, 16, 16}));
  for (auto l : ds.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 10);
  }
}

TEST(UspsLikeTest, DeterministicPerSeed) {
  SyntheticOptions opts;
  opts.seed = 5;
  const Dataset a = make_usps_like(8, opts);
  const Dataset b = make_usps_like(8, opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.labels[i], b.labels[i]);
    EXPECT_TRUE(tensors_close(a.images[i], b.images[i], 0.0f, 0.0f));
  }
}

TEST(UspsLikeTest, DifferentSeedsDiffer) {
  SyntheticOptions a_opts;
  a_opts.seed = 1;
  SyntheticOptions b_opts;
  b_opts.seed = 2;
  const Dataset a = make_usps_like(8, a_opts);
  const Dataset b = make_usps_like(8, b_opts);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= !tensors_close(a.images[i], b.images[i], 0.0f, 0.0f);
  }
  EXPECT_TRUE(any_diff);
}

TEST(UspsLikeTest, PixelRangeClamped) {
  const Dataset ds = make_usps_like(16);
  for (const auto& img : ds.images) {
    for (float v : img.flat()) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
}

TEST(UspsLikeTest, ClassesAreDistinguishable) {
  // Noise-free renders of distinct digits must differ.
  SyntheticOptions opts;
  opts.noise_stddev = 0.0f;
  opts.max_shift = 0;
  const Dataset ds = make_usps_like(200, opts);
  Tensor by_class[10];
  bool seen[10] = {};
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto c = static_cast<std::size_t>(ds.labels[i]);
    if (!seen[c]) {
      by_class[c] = ds.images[i];
      seen[c] = true;
    }
  }
  for (int a = 0; a < 10; ++a) {
    for (int b = a + 1; b < 10; ++b) {
      if (!seen[a] || !seen[b]) continue;
      EXPECT_FALSE(tensors_close(by_class[a], by_class[b], 0.0f, 0.0f))
          << "digits " << a << " and " << b << " render identically";
    }
  }
}

TEST(CifarLikeTest, ShapesAndLabels) {
  const Dataset ds = make_cifar_like(32);
  EXPECT_EQ(ds.size(), 32u);
  EXPECT_EQ(ds.image_shape(), (Shape3{3, 32, 32}));
  std::set<std::int64_t> classes(ds.labels.begin(), ds.labels.end());
  EXPECT_GT(classes.size(), 3u);
}

TEST(CifarLikeTest, SharedPrototypesAcrossSplits) {
  // Same proto_seed, different sample seeds: samples differ but per-class
  // structure is shared, so a same-class pair across splits correlates more
  // than a cross-class pair.
  SyntheticOptions a_opts;
  a_opts.seed = 10;
  a_opts.proto_seed = 99;
  a_opts.noise_stddev = 0.01f;
  a_opts.max_shift = 0;
  SyntheticOptions b_opts = a_opts;
  b_opts.seed = 20;
  const Dataset a = make_cifar_like(60, a_opts);
  const Dataset b = make_cifar_like(60, b_opts);

  auto find_label = [](const Dataset& ds, std::int64_t want) -> const Tensor* {
    for (std::size_t i = 0; i < ds.size(); ++i) {
      if (ds.labels[i] == want) return &ds.images[i];
    }
    return nullptr;
  };
  const Tensor* a0 = find_label(a, 0);
  const Tensor* b0 = find_label(b, 0);
  const Tensor* b1 = find_label(b, 1);
  ASSERT_TRUE(a0 && b0 && b1);
  EXPECT_LT(max_abs_diff(*a0, *b0), max_abs_diff(*a0, *b1));
}

TEST(StandardizeTest, TrainBecomesZeroMeanUnitVar) {
  TrainTest tt = make_usps_like_split(128, 32, 3);
  double sum = 0.0;
  double sum_sq = 0.0;
  std::int64_t n = 0;
  for (const auto& img : tt.train.images) {
    for (float v : img.flat()) {
      sum += v;
      sum_sq += static_cast<double>(v) * v;
    }
    n += img.size();
  }
  const double mean = sum / static_cast<double>(n);
  const double var = sum_sq / static_cast<double>(n) - mean * mean;
  EXPECT_NEAR(mean, 0.0, 1e-3);
  EXPECT_NEAR(var, 1.0, 1e-2);
}

TEST(DatasetTest, AppendAndTruncate) {
  Dataset a = make_usps_like(4);
  const Dataset b = make_usps_like(3);
  a.append(b);
  EXPECT_EQ(a.size(), 7u);
  a.truncate(2);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.labels.size(), 2u);
}

TEST(DatasetTest, SplitsAreDisjointSamples) {
  TrainTest tt = make_usps_like_split(32, 32, 9);
  bool any_diff = false;
  for (std::size_t i = 0; i < 32; ++i) {
    any_diff |= !tensors_close(tt.train.images[i], tt.test.images[i], 0.0f, 0.0f);
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace dfc::data
