// Tests for the core methodology: spec compilation, the accelerator builder,
// whole-network functional equivalence with the golden model, DMA/harness
// measurement semantics, the high-level pipeline behaviour, and the
// block-design export.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstring>
#include <sstream>

#include "axis/flit.hpp"
#include "common/rng.hpp"
#include "core/block_design.hpp"
#include "core/spec_io.hpp"
#include "core/compile.hpp"
#include "core/harness.hpp"
#include "core/presets.hpp"
#include "hwmodel/cost_model.hpp"
#include "report/experiments.hpp"

namespace dfc::core {
namespace {

Tensor random_image(const Shape3& s, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(s);
  for (float& v : t.flat()) v = rng.uniform(-1.0f, 1.0f);
  return t;
}

TEST(CompileTest, UspsPresetSpecStructure) {
  const NetworkSpec spec = make_usps_spec();
  ASSERT_EQ(spec.size(), 4u);
  const auto& conv1 = std::get<ConvLayerSpec>(spec.layers[0]);
  EXPECT_EQ(conv1.in_ports, 1);
  EXPECT_EQ(conv1.out_ports, 6);
  EXPECT_EQ(conv1.initiation_interval(), 1);  // fully parallel
  const auto& pool = std::get<PoolLayerSpec>(spec.layers[1]);
  EXPECT_EQ(pool.ports, 6);  // one core per upstream port
  const auto& conv2 = std::get<ConvLayerSpec>(spec.layers[2]);
  EXPECT_EQ(conv2.in_ports, 6);
  EXPECT_EQ(conv2.out_ports, 1);
  EXPECT_EQ(conv2.initiation_interval(), 16);
  const auto& fcn = std::get<FcnLayerSpec>(spec.layers[3]);
  EXPECT_EQ(fcn.in_count, 64);
  EXPECT_EQ(fcn.out_count, 10);
  EXPECT_EQ(spec.output_shape(), (Shape3{10, 1, 1}));
}

TEST(CompileTest, CifarPresetSpecStructure) {
  const NetworkSpec spec = make_cifar_spec();
  ASSERT_EQ(spec.size(), 6u);
  const auto& conv1 = std::get<ConvLayerSpec>(spec.layers[0]);
  EXPECT_EQ(conv1.in_ports, 1);
  EXPECT_EQ(conv1.out_ports, 1);
  EXPECT_EQ(conv1.initiation_interval(), 12);  // max(12/1, 3/1)
  const auto& conv2 = std::get<ConvLayerSpec>(spec.layers[2]);
  EXPECT_EQ(conv2.initiation_interval(), 36);
  const auto& fcn1 = std::get<FcnLayerSpec>(spec.layers[4]);
  EXPECT_EQ(fcn1.in_count, 900);
}

TEST(CompileTest, FlopsPerImage) {
  const NetworkSpec usps = make_usps_spec();
  // conv1: 144*6*1*25 MACs, conv2: 4*16*6*25, fcn: 64*10.
  const std::int64_t macs = 144 * 6 * 25 + 4 * 16 * 6 * 25 + 640;
  const std::int64_t bias_adds = 144 * 6 + 4 * 16 + 10;
  EXPECT_EQ(usps.flops_per_image(), 2 * macs + bias_adds);
}

TEST(CompileTest, WeightPermutationMatchesStreamOrder) {
  // Feature shape 2x2x2 (c,h,w): stream order is (y,x,c).
  const Shape3 fs{2, 2, 2};
  std::vector<float> w(8);
  for (std::size_t i = 0; i < 8; ++i) w[i] = static_cast<float>(i);  // w[chw index]
  const auto p = permute_fcn_weights_to_stream_order(w, 1, fs);
  // stream index (y,x,c): (0,0,0)->chw 0, (0,0,1)->chw 4, (0,1,0)->chw 1, ...
  EXPECT_EQ(p[0], 0.0f);
  EXPECT_EQ(p[1], 4.0f);
  EXPECT_EQ(p[2], 1.0f);
  EXPECT_EQ(p[3], 5.0f);
  EXPECT_EQ(p[4], 2.0f);
  EXPECT_EQ(p[5], 6.0f);
}

TEST(CompileTest, InvalidPlanRejected) {
  Preset p = make_usps_preset();
  p.plan.conv = {ConvPorts{1, 4}, ConvPorts{6, 1}};  // 4 does not divide 6 channels?
  // conv1 out_ports 4 with out_fm 6: 6 % 4 != 0 -> rejected.
  EXPECT_THROW(p.compile_spec(), ConfigError);
}

TEST(SpecTest, ValidateCatchesShapeBreaks) {
  NetworkSpec spec = make_usps_spec();
  std::get<ConvLayerSpec>(spec.layers[2]).in_shape = Shape3{6, 7, 7};
  EXPECT_THROW(spec.validate(), ConfigError);
}

// Each of these fields is a divisor in layer_describe() or out_shape(); a
// zero used to kill validate() with SIGFPE instead of a ConfigError.
TEST(SpecTest, ValidateRejectsZeroConvInPorts) {
  NetworkSpec spec = make_usps_spec();
  std::get<ConvLayerSpec>(spec.layers[0]).in_ports = 0;
  EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(SpecTest, ValidateRejectsZeroConvOutPorts) {
  NetworkSpec spec = make_usps_spec();
  std::get<ConvLayerSpec>(spec.layers[0]).out_ports = 0;
  EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(SpecTest, ValidateRejectsZeroConvStride) {
  NetworkSpec spec = make_usps_spec();
  std::get<ConvLayerSpec>(spec.layers[0]).stride = 0;
  EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(SpecTest, ValidateRejectsZeroPoolPorts) {
  NetworkSpec spec = make_usps_spec();
  std::get<PoolLayerSpec>(spec.layers[1]).ports = 0;
  EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(SpecTest, ValidateRejectsZeroPoolStride) {
  NetworkSpec spec = make_usps_spec();
  std::get<PoolLayerSpec>(spec.layers[1]).stride = 0;
  EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(SpecTest, DescribeMentionsEveryLayer) {
  const NetworkSpec spec = make_cifar_spec();
  const std::string d = spec.describe();
  EXPECT_NE(d.find("conv 5x5 3->12"), std::string::npos);
  EXPECT_NE(d.find("max-pool"), std::string::npos);
  EXPECT_NE(d.find("fcn 900->84"), std::string::npos);
}

// --- Whole-network functional equivalence ------------------------------------

TEST(AcceleratorTest, UspsNetworkMatchesGoldenModel) {
  Preset preset = make_usps_preset(3);
  const NetworkSpec spec = preset.compile_spec();
  AcceleratorHarness harness(build_accelerator(spec));

  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Tensor img = random_image(spec.input_shape, 100 + seed);
    const auto hw = harness.run_image(img);
    const Tensor sw = preset.net.infer(img);
    ASSERT_EQ(hw.size(), 10u);
    for (std::int64_t j = 0; j < 10; ++j) {
      EXPECT_NEAR(hw[static_cast<std::size_t>(j)], sw[j], 5e-4f)
          << "seed " << seed << " output " << j;
    }
  }
}

TEST(AcceleratorTest, CifarNetworkMatchesGoldenModel) {
  Preset preset = make_cifar_preset(4);
  const NetworkSpec spec = preset.compile_spec();
  AcceleratorHarness harness(build_accelerator(spec));
  const Tensor img = random_image(spec.input_shape, 55);
  const auto hw = harness.run_image(img);
  const Tensor sw = preset.net.infer(img);
  for (std::int64_t j = 0; j < 10; ++j) {
    EXPECT_NEAR(hw[static_cast<std::size_t>(j)], sw[j], 1e-3f) << "output " << j;
  }
}

TEST(AcceleratorTest, FilterChainMemoryStructureEquivalent) {
  // The element-level SST chains must give the same results as the fused
  // window buffers on the whole USPS network.
  Preset preset = make_usps_preset(5);
  preset.plan.conv[0].use_filter_chain = true;
  preset.plan.conv[1].use_filter_chain = true;
  preset.plan.pool_filter_chain = true;
  const NetworkSpec chain_spec = preset.compile_spec();

  Preset fused = make_usps_preset(5);
  const NetworkSpec fused_spec = fused.compile_spec();

  AcceleratorHarness chain(build_accelerator(chain_spec));
  AcceleratorHarness plain(build_accelerator(fused_spec));
  const Tensor img = random_image(chain_spec.input_shape, 77);
  const auto a = chain.run_image(img);
  const auto b = plain.run_image(img);
  for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j], b[j]);
}

// --- Pipeline timing behaviour ------------------------------------------------

TEST(PipelineTest, MeanTimePerImageDropsWithBatchSize) {
  const NetworkSpec spec = make_usps_spec(6);
  const auto points = dfc::report::batch_sweep(spec, {1, 2, 4, 8, 16, 32});
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i].mean_us_per_image, points[i - 1].mean_us_per_image)
        << "batch " << points[i].batch;
  }
}

TEST(PipelineTest, ConvergesOnceBatchExceedsLayerCount) {
  // Paper Fig. 6: convergence when batch size > number of layers (4 for the
  // USPS network + DMA stages).
  const NetworkSpec spec = make_usps_spec(6);
  const auto points = dfc::report::batch_sweep(spec, {8, 16, 32, 50});
  const double at8 = points[0].mean_us_per_image;
  const double at50 = points[3].mean_us_per_image;
  EXPECT_NEAR(at8, at50, 0.15 * at50);  // already within 15% at batch 8
  const double at32 = points[2].mean_us_per_image;
  EXPECT_NEAR(at32, at50, 0.05 * at50);  // and within 5% at batch 32
}

TEST(PipelineTest, SteadyIntervalMatchesCompletionSpacing) {
  const NetworkSpec spec = make_usps_spec(6);
  AcceleratorHarness harness(build_accelerator(spec));
  const auto images = dfc::report::random_images(spec, 12);
  const BatchResult r = harness.run_batch(images);
  // Completion spacing settles to a constant at steady state.
  const auto& cc = r.completion_cycles;
  const std::uint64_t d1 = cc[11] - cc[10];
  const std::uint64_t d2 = cc[10] - cc[9];
  const std::uint64_t d3 = cc[9] - cc[8];
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d2, d3);
}

TEST(PipelineTest, SequentialExecutionIsSlower) {
  const NetworkSpec spec = make_usps_spec(6);
  AcceleratorHarness harness(build_accelerator(spec));
  const auto images = dfc::report::random_images(spec, 6);
  const BatchResult pipelined = harness.run_batch(images);
  const BatchResult sequential = harness.run_sequential(images);
  EXPECT_LT(pipelined.total_cycles(), sequential.total_cycles());
  // Outputs must be identical regardless of scheduling.
  for (std::size_t i = 0; i < images.size(); ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_EQ(pipelined.outputs[i][j], sequential.outputs[i][j]);
    }
  }
}

TEST(PipelineTest, DeterministicAcrossRuns) {
  const NetworkSpec spec = make_usps_spec(6);
  AcceleratorHarness harness(build_accelerator(spec));
  const auto images = dfc::report::random_images(spec, 5);
  const BatchResult a = harness.run_batch(images);
  const BatchResult b = harness.run_batch(images);
  EXPECT_EQ(a.total_cycles(), b.total_cycles());
  EXPECT_EQ(a.completion_cycles, b.completion_cycles);
}

TEST(HarnessTest, InjectAndCompletionCyclesAreOrdered) {
  const NetworkSpec spec = make_usps_spec(6);
  AcceleratorHarness harness(build_accelerator(spec));
  const auto images = dfc::report::random_images(spec, 4);
  const BatchResult r = harness.run_batch(images);
  ASSERT_EQ(r.inject_cycles.size(), 4u);
  ASSERT_EQ(r.completion_cycles.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_LT(r.inject_cycles[i], r.completion_cycles[i]);
    if (i > 0) {
      EXPECT_LT(r.inject_cycles[i - 1], r.inject_cycles[i]);
      EXPECT_LT(r.completion_cycles[i - 1], r.completion_cycles[i]);
    }
  }
}

TEST(HarnessTest, ImageLatencyExceedsStreamingTime) {
  // An image cannot complete before its full volume has even streamed in.
  const NetworkSpec spec = make_usps_spec(6);
  AcceleratorHarness harness(build_accelerator(spec));
  const auto images = dfc::report::random_images(spec, 2);
  const BatchResult r = harness.run_batch(images);
  EXPECT_GT(r.image_latency_cycles(0),
            static_cast<std::uint64_t>(spec.input_shape.volume()));
}

TEST(HarnessTest, SlowOperatorsAreNotADeadlock) {
  // A 100 000-cycle adder keeps a core silent for longer than the default
  // watchdog window; the harness derives its watchdog from the operator
  // pipelines, so the legal design finishes with unchanged logits.
  const NetworkSpec fast = make_usps_spec(6);
  NetworkSpec slow = fast;
  slow.latency.fadd = 100'000;
  AcceleratorHarness slow_harness(build_accelerator(slow));
  EXPECT_GT(idle_watchdog_cycles(slow_harness.accelerator()), 100'000u);
  EXPECT_EQ(idle_watchdog_cycles(build_accelerator(fast)), 100'000u);
  const auto images = dfc::report::random_images(fast, 2);
  const BatchResult r = slow_harness.run_batch(images);
  ASSERT_TRUE(r.ok()) << run_status_name(r.status) << ": " << r.error;
  AcceleratorHarness fast_harness(build_accelerator(fast));
  const BatchResult ref = fast_harness.run_batch(images);
  ASSERT_TRUE(ref.ok());
  EXPECT_GT(r.total_cycles(), ref.total_cycles());
  ASSERT_EQ(r.outputs.size(), ref.outputs.size());
  for (std::size_t i = 0; i < r.outputs.size(); ++i) {
    ASSERT_EQ(r.outputs[i].size(), ref.outputs[i].size());
    EXPECT_EQ(std::memcmp(r.outputs[i].data(), ref.outputs[i].data(),
                          r.outputs[i].size() * sizeof(float)),
              0)
        << "image " << i;
  }
}

TEST(HarnessTest, UnfinishedRunsRaiseTypedErrors) {
  // A cycle budget the batch cannot meet is reported as kTimeout by the
  // harness; measurements that need a finished run raise SimError.
  const NetworkSpec spec = make_usps_spec(6);
  AcceleratorHarness harness(build_accelerator(spec));
  EXPECT_EQ(harness.run_batch(dfc::report::random_images(spec, 2), 100).status,
            RunStatus::kTimeout);
  harness.set_idle_limit(0);  // every idle cycle is now a deadlock
  EXPECT_EQ(harness.run_batch(dfc::report::random_images(spec, 2)).status,
            RunStatus::kDeadlock);
  // A billion-cycle adder cannot finish inside the default budget, so no
  // measurement is built from its partial run.
  NetworkSpec glacial = spec;
  glacial.latency.fadd = 1'000'000'000;
  EXPECT_THROW(dfc::report::measure_performance(glacial, 2), SimError);
  EXPECT_THROW(dfc::report::batch_sweep(glacial, {1, 2}), SimError);
  EXPECT_THROW(dfc::report::batch_sweep_sequential(glacial, {1, 2}), SimError);
}

TEST(DmaTest, SourceRejectsWrongShape) {
  const NetworkSpec spec = make_usps_spec(6);
  Accelerator acc = build_accelerator(spec);
  EXPECT_THROW(acc.source->enqueue(Tensor(Shape3{3, 32, 32})), ConfigError);
}

// --- Port adapter coverage at network scale -----------------------------------

TEST(AdapterTest, NonTrivialPortPlansStillMatchGolden) {
  // Exercise demux (1 stream -> 2 ports) and merge (2 ports -> 1) in a
  // 3-conv network with mismatched interfaces.
  nn::Sequential net;
  net.emplace<nn::Conv2d>(2, 4, 3, 3, 1, Activation::kTanh);
  net.emplace<nn::Conv2d>(4, 6, 3, 3, 1, Activation::kTanh);
  net.emplace<nn::Conv2d>(6, 2, 3, 3, 1, Activation::kNone);
  Rng rng(111);
  net.init_weights(rng);

  PortPlan plan;
  plan.conv = {ConvPorts{2, 2}, ConvPorts{4, 3}, ConvPorts{1, 2}};
  // conv1 out 2 ports -> conv2 in 4 ports (demux), conv2 out 3 -> conv3 in 1
  // (merge), conv3 out 2 -> DMA sink 1 (merge).
  const Shape3 input{2, 12, 12};
  const NetworkSpec spec = compile(net, input, plan, "adapters");
  AcceleratorHarness harness(build_accelerator(spec));
  const Tensor img = random_image(input, 222);
  const auto hw = harness.run_image(img);
  const Tensor sw = net.infer(img);
  // The DMA sink observes the final feature map in stream order (pixel-major
  // with channels interleaved), not CHW.
  const auto sw_stream = dfc::axis::pack_port_stream(sw, 1, 0);
  ASSERT_EQ(hw.size(), sw_stream.size());
  for (std::size_t j = 0; j < sw_stream.size(); ++j) {
    EXPECT_NEAR(hw[j], sw_stream[j].data, 1e-3f) << j;
  }
}

TEST(AcceleratorTest, PaddedNetworkMatchesGoldenModel) {
  // Zero-padding exercised end to end: two "same" convolutions + pool + FCN.
  nn::Sequential net;
  net.emplace<nn::Conv2d>(1, 4, 3, 3, 1, Activation::kTanh, /*padding=*/1);
  net.emplace<nn::Pool2d>(PoolMode::kMax, 2, 2, 2);
  net.emplace<nn::Conv2d>(4, 6, 5, 5, 1, Activation::kTanh, /*padding=*/2);
  net.emplace<nn::Linear>(6 * 6 * 6, 10);
  Rng rng(313);
  net.init_weights(rng);

  PortPlan plan;
  plan.conv = {ConvPorts{1, 2}, ConvPorts{2, 1}};
  const Shape3 input{1, 12, 12};
  const NetworkSpec spec = compile(net, input, plan, "padded-net");
  AcceleratorHarness harness(build_accelerator(spec));

  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Tensor img = random_image(input, 400 + seed);
    const auto hw = harness.run_image(img);
    const Tensor sw = net.infer(img);
    for (std::int64_t j = 0; j < 10; ++j) {
      EXPECT_NEAR(hw[static_cast<std::size_t>(j)], sw[j], 1e-3f) << "seed " << seed;
    }
  }
}

TEST(AcceleratorTest, PaddedNetworkStreamsBatches) {
  nn::Sequential net;
  net.emplace<nn::Conv2d>(2, 4, 3, 3, 1, Activation::kRelu, 1);
  net.emplace<nn::Conv2d>(4, 2, 3, 3, 1, Activation::kNone, 1);
  Rng rng(317);
  net.init_weights(rng);
  const Shape3 input{2, 8, 8};
  const NetworkSpec spec = compile(net, input, PortPlan{}, "padded-stream");
  AcceleratorHarness harness(build_accelerator(spec));
  const auto images = dfc::report::random_images(spec, 6);
  const BatchResult r = harness.run_batch(images);
  ASSERT_EQ(r.outputs.size(), 6u);
  // Every image's result must match the golden model in stream order.
  for (std::size_t i = 0; i < images.size(); ++i) {
    const auto sw_stream = dfc::axis::pack_port_stream(net.infer(images[i]), 1, 0);
    for (std::size_t j = 0; j < sw_stream.size(); ++j) {
      EXPECT_NEAR(r.outputs[i][j], sw_stream[j].data, 1e-3f) << "image " << i;
    }
  }
}

TEST(AcceleratorTest, ResultsIndependentOfFifoSizing) {
  // Latency-insensitive design: channel capacities change timing, never
  // values.
  const NetworkSpec spec = make_usps_spec(41);
  BuildOptions tiny;
  tiny.stream_fifo_capacity = 2;
  tiny.window_fifo_capacity = 2;
  BuildOptions roomy;
  roomy.stream_fifo_capacity = 32;
  roomy.window_fifo_capacity = 16;

  AcceleratorHarness a(build_accelerator(spec, tiny));
  AcceleratorHarness b(build_accelerator(spec, roomy));
  const auto images = dfc::report::random_images(spec, 5);
  const BatchResult ra = a.run_batch(images);
  const BatchResult rb = b.run_batch(images);
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ(ra.outputs[i], rb.outputs[i]) << "image " << i;
  }
}

TEST(AlexNetPresetTest, SpecIsValidAndLarge) {
  const NetworkSpec spec = make_alexnet_mini_spec();
  EXPECT_EQ(spec.size(), 9u);
  EXPECT_EQ(spec.output_shape(), (Shape3{10, 1, 1}));
  EXPECT_GT(spec.flops_per_image(), 10'000'000);
  // The Eq. 4 floor exceeds the paper's device (see bench_alexnet_scaling).
  EXPECT_FALSE(dfc::hw::virtex7_485t().fits(dfc::hw::estimate_design(spec).total));
}

// --- Spec serialization --------------------------------------------------------

TEST(SpecIoTest, RoundTripPreservesEverything) {
  const NetworkSpec spec = make_usps_spec(31);
  std::stringstream buf;
  save_spec(spec, buf);
  const NetworkSpec back = load_spec(buf);

  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.input_shape, spec.input_shape);
  EXPECT_EQ(back.latency.fadd, spec.latency.fadd);
  ASSERT_EQ(back.layers.size(), spec.layers.size());
  const auto& c0 = std::get<ConvLayerSpec>(spec.layers[0]);
  const auto& c0b = std::get<ConvLayerSpec>(back.layers[0]);
  EXPECT_EQ(c0b.out_ports, c0.out_ports);
  EXPECT_EQ(c0b.weights, c0.weights);
  const auto& f = std::get<FcnLayerSpec>(spec.layers[3]);
  const auto& fb = std::get<FcnLayerSpec>(back.layers[3]);
  EXPECT_EQ(fb.weights, f.weights);
  EXPECT_EQ(fb.biases, f.biases);
}

TEST(SpecIoTest, ReloadedSpecRunsIdentically) {
  const NetworkSpec spec = make_cifar_spec(32);
  std::stringstream buf;
  save_spec(spec, buf);
  const NetworkSpec back = load_spec(buf);

  AcceleratorHarness a(build_accelerator(spec));
  AcceleratorHarness b(build_accelerator(back));
  const Tensor img = random_image(spec.input_shape, 909);
  const auto ra = a.run_image(img);
  const auto rb = b.run_image(img);
  EXPECT_EQ(ra, rb);
}

TEST(SpecIoTest, AlexNetRoundTripPreservesPaddingAndStride) {
  const NetworkSpec spec = make_alexnet_mini_spec();
  std::stringstream buf;
  save_spec(spec, buf);
  const NetworkSpec back = load_spec(buf);
  const auto& c0 = std::get<ConvLayerSpec>(spec.layers[0]);
  const auto& c0b = std::get<ConvLayerSpec>(back.layers[0]);
  EXPECT_EQ(c0b.pad, c0.pad);
  EXPECT_EQ(c0b.stride, c0.stride);
  EXPECT_EQ(c0b.act, c0.act);
  EXPECT_EQ(back.flops_per_image(), spec.flops_per_image());
  EXPECT_EQ(back.output_shape(), spec.output_shape());
}

TEST(SpecIoTest, RejectsGarbage) {
  std::stringstream buf("this is not a spec");
  EXPECT_THROW(load_spec(buf), ConfigError);
}

TEST(SpecIoTest, RejectsTruncation) {
  const NetworkSpec spec = make_usps_spec();
  std::stringstream buf;
  save_spec(spec, buf);
  std::string data = buf.str();
  data.resize(data.size() / 2);
  std::stringstream cut(data);
  EXPECT_THROW(load_spec(cut), ConfigError);
}

TEST(SpecIoTest, TruncatedHugeWeightArrayFailsWithoutAllocatingIt) {
  // The usps header and first conv layer, whose weight array claims 2^28
  // floats (1 GiB) and then ends: 137 bytes. Loading must fail with a
  // ConfigError without allocating what the length field promises.
  const NetworkSpec spec = make_usps_spec();
  std::stringstream full;
  save_spec(spec, full);
  // Magic, version, name, input shape, latencies, layer count, then the
  // conv layer's tag, shape, out_fm, six int32 fields and two flag bytes.
  const std::size_t weights_at =
      10 + 4 + (8 + spec.name.size()) + 24 + 8 + 8 + 1 + 24 + 8 + 24 + 2;
  std::uint64_t real = 0;
  std::memcpy(&real, full.str().data() + weights_at, sizeof real);
  ASSERT_EQ(real, std::get<ConvLayerSpec>(spec.layers[0]).weights.size());
  std::string bytes = full.str().substr(0, weights_at);
  const std::uint64_t claimed = std::uint64_t{1} << 28;
  bytes.append(reinterpret_cast<const char*>(&claimed), sizeof claimed);
  ASSERT_EQ(bytes.size(), 137u);

  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  std::stringstream cut(bytes);
  try {
    (void)load_spec(cut);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("spec stream truncated"), std::string::npos) << e.what();
  }
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024);  // KiB
}

TEST(SpecIoTest, FileRoundTrip) {
  const NetworkSpec spec = make_usps_spec(33);
  const std::string path = "/tmp/dfcnn_spec_io_test.bin";
  save_spec_file(spec, path);
  const NetworkSpec back = load_spec_file(path);
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.flops_per_image(), spec.flops_per_image());
}

// --- DMA bandwidth -------------------------------------------------------------

TEST(DmaTest, ThrottledSourceSlowsDmaBoundDesign) {
  const NetworkSpec spec = make_usps_spec(6);
  BuildOptions slow;
  slow.dma_cycles_per_word = 4;
  AcceleratorHarness fast_h(build_accelerator(spec));
  AcceleratorHarness slow_h(build_accelerator(spec, slow));
  const auto images = dfc::report::random_images(spec, 8);
  const auto rf = fast_h.run_batch(images);
  const auto rs = slow_h.run_batch(images);
  // TC1 is ingest-bound: each image needs 256 input words plus 10 output
  // words over the shared DMA bus (DESIGN.md §5), so the steady interval is
  // 266 bus slots. Quartering the bandwidth quarters the throughput
  // (266 -> 1064 cycles).
  EXPECT_EQ(rf.steady_interval_cycles(), 266u);
  EXPECT_EQ(rs.steady_interval_cycles(), 1064u);
  // Results are bandwidth-independent.
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ(rf.outputs[i], rs.outputs[i]);
  }
}

// --- Block design export -------------------------------------------------------

TEST(BlockDesignTest, AsciiContainsPaperFigureData) {
  const std::string art = block_design_ascii(make_usps_spec());
  EXPECT_NE(art.find("window 5x5"), std::string::npos);
  EXPECT_NE(art.find("channels 1 in / 6 out"), std::string::npos);
  EXPECT_NE(art.find("windows in: 6"), std::string::npos);
  EXPECT_NE(art.find("DMA source"), std::string::npos);
  EXPECT_NE(art.find("10 class scores"), std::string::npos);
}

TEST(BlockDesignTest, DotIsWellFormed) {
  const std::string dot = block_design_dot(make_cifar_spec());
  EXPECT_EQ(dot.find("digraph"), 0u);
  EXPECT_NE(dot.find("l0 -> l1"), std::string::npos);
  EXPECT_NE(dot.find("dma_out"), std::string::npos);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'), 1);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '}'), 1);
}

}  // namespace
}  // namespace dfc::core
