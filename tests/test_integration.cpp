// Cross-module integration tests: the full train -> compile -> deploy ->
// classify loop, hardware/software/quantized consistency, and both paper
// test cases end to end.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/harness.hpp"
#include "core/presets.hpp"
#include "data/synthetic.hpp"
#include "dse/throughput_model.hpp"
#include "quant/quantized_infer.hpp"
#include "report/experiments.hpp"
#include "report/profile.hpp"

namespace dfc {
namespace {

/// Trains the preset briefly on the synthetic dataset; returns test accuracy.
double quick_train(core::Preset& preset, data::TrainTest& split, int epochs, float lr) {
  for (int e = 0; e < epochs; ++e) {
    for (std::size_t s = 0; s + 32 <= split.train.size(); s += 32) {
      std::vector<Tensor> imgs(split.train.images.begin() + static_cast<std::ptrdiff_t>(s),
                               split.train.images.begin() + static_cast<std::ptrdiff_t>(s + 32));
      std::vector<std::int64_t> lbls(
          split.train.labels.begin() + static_cast<std::ptrdiff_t>(s),
          split.train.labels.begin() + static_cast<std::ptrdiff_t>(s + 32));
      preset.net.train_batch(imgs, lbls, lr);
    }
  }
  return preset.net.evaluate(split.test.images, split.test.labels);
}

TEST(IntegrationTest, TrainDeployClassifyUsps) {
  auto split = data::make_usps_like_split(512, 128, 1234);
  core::Preset preset = core::make_usps_preset(1);
  const double sw_acc = quick_train(preset, split, 8, 0.08f);
  EXPECT_GT(sw_acc, 0.7);

  const core::NetworkSpec spec = preset.compile_spec();
  core::AcceleratorHarness harness(core::build_accelerator(spec));
  std::vector<Tensor> batch(split.test.images.begin(), split.test.images.begin() + 24);
  const core::BatchResult r = harness.run_batch(batch);

  std::size_t agree = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    agree += (r.predicted_class(i) == preset.net.predict(batch[i]));
  }
  EXPECT_EQ(agree, batch.size()) << "accelerator and golden model disagree";
}

TEST(IntegrationTest, QuantizedDeploymentAgreesOnTrainedNet) {
  auto split = data::make_usps_like_split(256, 64, 77);
  core::Preset preset = core::make_usps_preset(2);
  quick_train(preset, split, 4, 0.05f);
  const core::NetworkSpec spec = preset.compile_spec();

  std::size_t agree = 0;
  const std::size_t n = 16;
  for (std::size_t i = 0; i < n; ++i) {
    const Tensor fx =
        quant::fixed_point_infer(spec, split.test.images[i], quant::FixedFormat{24, 14});
    agree += (fx.argmax() == preset.net.predict(split.test.images[i]));
  }
  EXPECT_GE(agree, n - 1) << "24-bit fixed point should almost always agree";
}

TEST(IntegrationTest, CifarPresetEndToEnd) {
  core::Preset preset = core::make_cifar_preset(3);
  const core::NetworkSpec spec = preset.compile_spec();
  core::AcceleratorHarness harness(core::build_accelerator(spec));
  const auto images = report::random_images(spec, 2);
  const core::BatchResult r = harness.run_batch(images);
  for (std::size_t i = 0; i < 2; ++i) {
    const Tensor sw = preset.net.infer(images[i]);
    for (std::int64_t j = 0; j < 10; ++j) {
      EXPECT_NEAR(r.outputs[i][static_cast<std::size_t>(j)], sw[j], 1e-3f);
    }
  }
}

TEST(IntegrationTest, BothTestCasesFitTheDevicePerTimingAndResources) {
  const auto dev = hw::virtex7_485t();
  for (const auto& spec : {core::make_usps_spec(), core::make_cifar_spec()}) {
    EXPECT_TRUE(dev.fits(hw::estimate_design(spec).total)) << spec.name;
    EXPECT_GT(dse::estimate_timing(spec).images_per_second(), 1000.0) << spec.name;
  }
}

TEST(IntegrationTest, Fig6ShapeBothNetworks) {
  // Mean time per image falls with batch size and converges for both test
  // cases — the paper's headline claim.
  for (const auto& spec : {core::make_usps_spec(), core::make_cifar_spec()}) {
    const auto pts = report::batch_sweep(spec, {1, 4, 10});
    EXPECT_GT(pts[0].mean_us_per_image, pts[1].mean_us_per_image) << spec.name;
    EXPECT_GT(pts[1].mean_us_per_image, pts[2].mean_us_per_image) << spec.name;
    // Convergence: batch 10 within 25% of the analytic steady interval.
    const double steady =
        dfc::core::cycles_to_us(static_cast<double>(dse::estimate_timing(spec).interval_cycles));
    EXPECT_LT(pts[2].mean_us_per_image, 1.6 * steady) << spec.name;
  }
}

TEST(IntegrationTest, PerformanceMetricsAreSelfConsistent) {
  const auto spec = core::make_usps_spec();
  const auto m = report::measure_performance(spec, 32);
  EXPECT_GT(m.images_per_second, 0.0);
  EXPECT_GT(m.gflops, 0.0);
  EXPECT_NEAR(m.gflops_per_watt, m.gflops / m.watts, 1e-12);
  // images/s * s/image == 1 by construction.
  EXPECT_NEAR(m.images_per_second * m.mean_us_per_image * 1e-6, 1.0, 1e-9);
}

// --- Random-network property fuzz ---------------------------------------------
//
// Generates a random but valid network (layer mix, shapes, strides, padding,
// activations) and a random compatible port plan, deploys it, and checks the
// accelerator output against the golden model. One parameterized instance
// per seed.
namespace fuzz {

struct RandomNet {
  nn::Sequential net;
  Shape3 input{};
  core::PortPlan plan;
};

std::vector<int> divisors(std::int64_t n, int cap = 8) {
  std::vector<int> out;
  for (int d = 1; d <= n && d <= cap; ++d) {
    if (n % d == 0) out.push_back(d);
  }
  return out;
}

RandomNet make_random_net(std::uint64_t seed) {
  Rng rng(seed);
  RandomNet r;
  const std::int64_t channel_choices[] = {1, 2, 3, 4, 6};
  r.input = Shape3{channel_choices[rng.next_below(5)],
                   rng.next_int(10, 18), rng.next_int(10, 18)};

  Shape3 shape = r.input;
  const int conv_layers = static_cast<int>(rng.next_int(1, 3));
  for (int i = 0; i < conv_layers; ++i) {
    const int k = static_cast<int>(rng.next_int(1, 3));
    const int stride = static_cast<int>(rng.next_int(1, 2));
    const int pad = (k > 1 && rng.bernoulli(0.4)) ? static_cast<int>(rng.next_int(1, k - 1)) : 0;
    const std::int64_t out_c = channel_choices[rng.next_below(5)] *
                               static_cast<std::int64_t>(rng.next_int(1, 2));
    const nn::Activation acts[] = {nn::Activation::kNone, nn::Activation::kRelu,
                                   nn::Activation::kTanh};
    const nn::Activation act = acts[rng.next_below(3)];
    if (shape.h + 2 * pad < k || shape.w + 2 * pad < k) break;

    auto& conv = r.net.emplace<nn::Conv2d>(shape.c, out_c, k, k, stride, act, pad);
    // Random compatible ports (filter chain variant only when unpadded).
    const auto in_opts = divisors(shape.c);
    const auto out_opts = divisors(out_c);
    core::ConvPorts ports;
    ports.in_ports = in_opts[rng.next_below(in_opts.size())];
    ports.out_ports = out_opts[rng.next_below(out_opts.size())];
    ports.use_filter_chain = (pad == 0) && rng.bernoulli(0.2);
    r.plan.conv.push_back(ports);
    shape = conv.output_shape(shape);

    // Optional pool when space allows.
    if (shape.h >= 2 && shape.w >= 2 && rng.bernoulli(0.5)) {
      const hls::PoolMode mode =
          rng.bernoulli(0.5) ? hls::PoolMode::kMax : hls::PoolMode::kMean;
      auto& pool = r.net.emplace<nn::Pool2d>(mode, 2, 2, 2);
      shape = pool.output_shape(shape);
    }
  }
  // Classifier head; sometimes two linear layers.
  const std::int64_t classes = rng.next_int(2, 10);
  if (rng.bernoulli(0.4)) {
    const std::int64_t hidden = rng.next_int(4, 16);
    r.net.emplace<nn::Linear>(shape.volume(), hidden, nn::Activation::kTanh);
    r.net.emplace<nn::Linear>(hidden, classes);
  } else {
    r.net.emplace<nn::Linear>(shape.volume(), classes);
  }
  r.net.init_weights(rng);
  return r;
}

}  // namespace fuzz

class RandomNetworkFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomNetworkFuzz, AcceleratorMatchesGoldenModel) {
  const std::uint64_t seed = GetParam();
  fuzz::RandomNet r = fuzz::make_random_net(seed);

  core::NetworkSpec spec;
  try {
    spec = core::compile(r.net, r.input, r.plan, "fuzz-" + std::to_string(seed));
  } catch (const ConfigError&) {
    // Some random port plans violate adapter divisibility; retry single-port,
    // which is always compatible.
    core::PortPlan fallback;
    fallback.conv.assign(r.plan.conv.size(), core::ConvPorts{});
    spec = core::compile(r.net, r.input, fallback, "fuzz-" + std::to_string(seed));
  }

  core::AcceleratorHarness harness(core::build_accelerator(spec));
  const auto images = report::random_images(spec, 2, seed * 31 + 7);
  const core::BatchResult res = harness.run_batch(images);

  for (std::size_t i = 0; i < images.size(); ++i) {
    const Tensor sw = r.net.infer(images[i]);
    ASSERT_EQ(static_cast<std::int64_t>(res.outputs[i].size()), sw.size()) << "seed " << seed;
    for (std::int64_t j = 0; j < sw.size(); ++j) {
      EXPECT_NEAR(res.outputs[i][static_cast<std::size_t>(j)], sw[j], 2e-3f)
          << "seed " << seed << " image " << i << " output " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetworkFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(ReportTest, RandomImagesDeterministicPerSeed) {
  const auto spec = core::make_usps_spec();
  const auto a = report::random_images(spec, 3, 42);
  const auto b = report::random_images(spec, 3, 42);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(tensors_close(a[i], b[i], 0.0f, 0.0f));
  }
  const auto c = report::random_images(spec, 3, 43);
  EXPECT_FALSE(tensors_close(a[0], c[0], 0.0f, 0.0f));
}

// The share of its observed cycles each core spent working.
std::vector<std::pair<std::string, double>> working_shares(const core::NetworkSpec& spec,
                                                           std::size_t batch) {
  core::AcceleratorHarness harness(core::build_accelerator(spec));
  harness.observe();
  EXPECT_TRUE(harness.run_batch(report::random_images(spec, batch)).ok());
  std::vector<std::pair<std::string, double>> shares;
  for (const auto& core : report::read_observation(harness.accelerator()).cores) {
    shares.emplace_back(core.name, static_cast<double>(core.activity.working) /
                                       static_cast<double>(core.activity.total()));
  }
  return shares;
}

TEST(ReportTest, PipelineProfileCoversEveryCore) {
  const auto shares = working_shares(core::make_usps_spec(), 8);
  // USPS: 1 conv + 6 pool cores + 1 conv + 1 fcn.
  EXPECT_EQ(shares.size(), 9u);
  for (const auto& [name, share] : shares) {
    EXPECT_GT(share, 0.0) << name << " never worked";
    EXPECT_LE(share, 1.0) << name;
  }
}

TEST(ReportTest, BottleneckCoreIsBusiest) {
  // CIFAR's conv1 is the analytic bottleneck; the profile must agree.
  double best = 0.0;
  std::string busiest;
  for (const auto& [name, share] : working_shares(core::make_cifar_spec(), 6)) {
    if (share > best) {
      best = share;
      busiest = name;
    }
  }
  EXPECT_EQ(busiest, "L0.conv");
  EXPECT_GT(best, 0.8);
}

TEST(IntegrationTest, UspsFasterThanCifarPerImage) {
  const auto usps = report::measure_performance(core::make_usps_spec(), 16);
  const auto cifar = report::measure_performance(core::make_cifar_spec(), 16);
  EXPECT_LT(usps.mean_us_per_image, cifar.mean_us_per_image);
  // The paper's Table II has TC2 at higher GFLOPS and higher GFLOPS/W.
  EXPECT_GT(cifar.gflops, usps.gflops);
  EXPECT_GT(cifar.gflops_per_watt, usps.gflops_per_watt);
}

}  // namespace
}  // namespace dfc
