// Tests for the HLS-style compute cores: functional equivalence with the
// reference layers, the Eq. 4 initiation interval, pipeline latency, the
// accumulator-interleave behaviour of the FCN core, the tree adder, the
// MAC kernels' bit-identity with the scalar evaluation order, and the
// activations' bit-identity with their scalar definitions and libm's tanh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <thread>
#include <utility>

#include "axis/flit.hpp"
#include "common/rng.hpp"
#include "dataflow/endpoints.hpp"
#include "dataflow/sim_context.hpp"
#include "hlscore/conv_core.hpp"
#include "hlscore/fcn_core.hpp"
#include "hlscore/mac_kernel.hpp"
#include "hlscore/pool_core.hpp"
#include "hlscore/tanh.hpp"
#include "hlscore/tree_reduce.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool2d.hpp"
#include "sst/window_buffer.hpp"

namespace dfc::hls {
namespace {

using dfc::axis::Flit;
using dfc::df::Fifo;
using dfc::df::SimContext;
using dfc::df::VectorSink;
using dfc::df::VectorSource;
using dfc::sst::Window;
using dfc::sst::WindowGeometry;

TEST(TreeReduceTest, MatchesSequentialSumForUniformValues) {
  std::vector<float> v(25, 1.0f);
  EXPECT_EQ(tree_reduce(v), 25.0f);
}

TEST(TreeReduceTest, ExactPairwiseAssociation) {
  // 4 values: tree computes (a+b)+(c+d), not ((a+b)+c)+d.
  const std::vector<float> v{1e8f, 1.0f, -1e8f, 1.0f};
  EXPECT_EQ(tree_reduce(v), (1e8f + 1.0f) + (-1e8f + 1.0f));
}

TEST(TreeReduceTest, OddSizes) {
  const std::vector<float> v{1, 2, 3, 4, 5};
  EXPECT_EQ(tree_reduce(v), ((1.f + 2.f) + (3.f + 4.f)) + 5.f);
}

TEST(TreeReduceTest, EmptyAndSingle) {
  EXPECT_EQ(tree_reduce(std::span<const float>{}), 0.0f);
  const std::vector<float> one{3.5f};
  EXPECT_EQ(tree_reduce(one), 3.5f);
}

TEST(TreeReduceTest, InplaceMatchesCopying) {
  Rng rng(3);
  std::vector<float> v(37);
  for (auto& x : v) x = rng.uniform(-2.0f, 2.0f);
  std::vector<float> w = v;
  EXPECT_EQ(tree_reduce(v), tree_reduce_inplace(w));
}

TEST(TreeReduceTest, DepthAndAdderCount) {
  EXPECT_EQ(tree_depth(1), 0);
  EXPECT_EQ(tree_depth(2), 1);
  EXPECT_EQ(tree_depth(25), 5);
}

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

TEST(ActivationTest, Functions) {
  EXPECT_EQ(apply_activation(Activation::kNone, -2.0f), -2.0f);
  EXPECT_EQ(apply_activation(Activation::kRelu, -2.0f), 0.0f);
  EXPECT_EQ(apply_activation(Activation::kRelu, 3.0f), 3.0f);
  EXPECT_EQ(bits(apply_activation(Activation::kRelu, -0.0f)), bits(0.0f));
  EXPECT_EQ(bits(apply_activation(Activation::kRelu, std::numeric_limits<float>::quiet_NaN())),
            bits(0.0f));
  EXPECT_EQ(bits(apply_activation(Activation::kTanh, 0.5f)), bits(std::tanh(0.5f)));
}

using TanhPath = void (*)(std::span<float>);

// The tanh paths this CPU runs: the baseline always, AVX2 when it has it.
std::vector<std::pair<const char*, TanhPath>> tanh_paths() {
  std::vector<std::pair<const char*, TanhPath>> paths{{"baseline", tanh_baseline}};
  if (tanh_avx2_supported()) paths.emplace_back("avx2", tanh_avx2);
  return paths;
}

// Runs every path over `xs` and compares each result with std::tanh bit for
// bit, reporting the first few mismatches.
void expect_tanh_matches_libm(const std::vector<float>& xs) {
  for (const auto& [name, tanh_path] : tanh_paths()) {
    std::vector<float> got = xs;
    tanh_path(got);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (bits(got[i]) == bits(std::tanh(xs[i]))) continue;
      if (++mismatches <= 8) {
        ADD_FAILURE() << name << ": tanh(0x" << std::hex << bits(xs[i]) << ") = 0x" << bits(got[i])
                      << ", libm 0x" << bits(std::tanh(xs[i]));
      }
    }
    EXPECT_EQ(mismatches, 0U) << name;
  }
}

TEST(ActivationTest, TanhMatchesLibmBitwise) {
  std::vector<float> xs;
  // About a million bit patterns at a prime stride: every sign and exponent.
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 4093) {
    xs.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(b)));
  }
  // |x| at each branch edge of tanhf and of the expm1f(+-2|x|) it calls, the
  // k edges found by scanning tanhf's own float arithmetic.
  const std::uint32_t edges[] = {
      0x24000000,  // 2^-55: x*(1+x) below
      0x32800000,  // 2|x| = 2^-25: expm1f returns its argument below
      0x3e317219,  // 2|x| > 0.5 ln2: reduction with k = -1
      0x3f051592,  // 2|x| >= 1.5 ln2: general reduction, k = -2
      0x3f5dce9e,  // k = -3
      0x3f800000,  // 1: expm1f(2|x|) from here, k >= 3
      0x40f98872,  // k = 23: 2^-k added before 1, not subtracted from it
      0x4115b844,  // 2|x| = 27 ln2: expm1f's large-argument test
      0x419ca6b9,  // k = 57: exp - 1 directly
      0x41b00000,  // 22: +-1 from here
  };
  for (const std::uint32_t edge : edges) {
    for (std::uint32_t b = edge - 4; b <= edge + 4; ++b) {
      xs.push_back(std::bit_cast<float>(b));
      xs.push_back(-std::bit_cast<float>(b));
    }
  }
  // Zeros, subnormals, the normal extremes, infinities, quiet and signalling
  // NaNs.
  for (const std::uint32_t b : {0x00000000U, 0x00000001U, 0x00400000U, 0x007fffffU, 0x00800000U,
                                0x7f7fffffU, 0x7f800000U, 0x7f800001U, 0x7fa00001U, 0x7fc00000U,
                                0x7fffffffU}) {
    xs.push_back(std::bit_cast<float>(b));
    xs.push_back(std::bit_cast<float>(b | 0x80000000U));
  }
  expect_tanh_matches_libm(xs);
}

// Lengths 0-17 give every tail of the 4- and 8-lane vectors; -0 and NaN
// check relu's definition in the vector form.
TEST(ActivationTest, SpanMatchesScalar) {
  Rng rng(11);
  for (const Activation act : {Activation::kNone, Activation::kRelu, Activation::kTanh}) {
    for (std::size_t n = 0; n <= 17; ++n) {
      std::vector<float> xs(n);
      for (float& x : xs) x = rng.uniform(-3.0f, 3.0f);
      if (n > 0) xs[0] = -0.0f;
      if (n > 1) xs[n - 1] = std::numeric_limits<float>::quiet_NaN();
      std::vector<float> vector_form = xs;
      apply_activation(act, vector_form);
      std::vector<std::pair<const char*, std::vector<float>>> forms{{"dispatch", vector_form}};
      if (act == Activation::kTanh) {
        for (const auto& [name, tanh_path] : tanh_paths()) {
          forms.emplace_back(name, xs);
          tanh_path(forms.back().second);
        }
      }
      for (const auto& [name, got] : forms) {
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(bits(got[i]), bits(apply_activation(act, xs[i])))
              << activation_name(act) << " " << name << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

// All 2^32 inputs on every path, about a minute on 4 cores. Run with
// --gtest_also_run_disabled_tests --gtest_filter='*Exhaustive*'.
TEST(ActivationTest, DISABLED_TanhMatchesLibmExhaustive) {
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1U, 4U);
  for (const auto& [name, tanh_path] : tanh_paths()) {
    std::atomic<std::uint64_t> mismatches{0};
    std::atomic<std::uint32_t> example{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t, path = tanh_path] {
        std::vector<float> got(kChunk);
        for (std::uint64_t first = t * kChunk; first < (std::uint64_t{1} << 32);
             first += threads * kChunk) {
          for (std::uint64_t i = 0; i < kChunk; ++i) {
            got[i] = std::bit_cast<float>(static_cast<std::uint32_t>(first + i));
          }
          path(got);
          for (std::uint64_t i = 0; i < kChunk; ++i) {
            const auto b = static_cast<std::uint32_t>(first + i);
            if (bits(got[i]) != bits(std::tanh(std::bit_cast<float>(b)))) {
              mismatches.fetch_add(1);
              example.store(b);
            }
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(mismatches.load(), 0U) << name << ", e.g. at 0x" << std::hex << example.load();
  }
}

// --- ConvCore harness --------------------------------------------------------

struct ConvRun {
  Tensor output;
  std::vector<std::vector<std::uint64_t>> port_arrivals;
  std::uint64_t cycles = 0;
};

ConvRun run_conv(const nn::Conv2d& layer, const Tensor& input, int in_ports, int out_ports,
                 int images = 1) {
  SimContext ctx;
  const Shape3 is = input.shape();
  const Shape3 os = layer.output_shape(is);

  WindowGeometry geom{is.w, is.h, layer.kh(), layer.kw(), layer.stride(), layer.stride(),
                      is.c / in_ports, layer.padding()};

  std::vector<Fifo<Window>*> wins;
  for (int p = 0; p < in_ports; ++p) {
    auto& sf = ctx.add_fifo<Flit>("s" + std::to_string(p), 4);
    auto& wf = ctx.add_fifo<Window>("w" + std::to_string(p), 4);
    ctx.add_process<dfc::sst::WindowBuffer>("wb" + std::to_string(p), geom, sf, wf);
    std::vector<Flit> stream;
    for (int i = 0; i < images; ++i) {
      const auto one = dfc::axis::pack_port_stream(input, in_ports, p);
      stream.insert(stream.end(), one.begin(), one.end());
    }
    ctx.add_process<VectorSource<Flit>>("src" + std::to_string(p), sf, std::move(stream));
    wins.push_back(&wf);
  }

  ConvCoreConfig cfg;
  cfg.in_ports = in_ports;
  cfg.out_ports = out_ports;
  cfg.in_fm = is.c;
  cfg.out_fm = layer.out_channels();
  cfg.kh = layer.kh();
  cfg.kw = layer.kw();
  cfg.out_positions = os.plane();
  cfg.weights = layer.weights();
  cfg.biases = layer.biases();
  cfg.activation = layer.activation();

  std::vector<Fifo<Flit>*> outs;
  std::vector<VectorSink<Flit>*> sinks;
  for (int p = 0; p < out_ports; ++p) {
    outs.push_back(&ctx.add_fifo<Flit>("o" + std::to_string(p), 4));
  }
  ctx.add_process<ConvCore>("conv", cfg, wins, outs);
  for (int p = 0; p < out_ports; ++p) {
    sinks.push_back(&ctx.add_process<VectorSink<Flit>>("sink" + std::to_string(p), *outs[p]));
  }

  const std::size_t per_port =
      static_cast<std::size_t>(dfc::axis::channels_on_port(os.c, out_ports, 0) * os.plane() *
                               images);
  ConvRun run;
  run.cycles = ctx.run_until(
      [&] {
        for (auto* s : sinks) {
          if (s->count() < per_port) return false;
        }
        return true;
      },
      10'000'000);

  std::vector<std::vector<Flit>> streams;
  for (auto* s : sinks) {
    // Keep only the final image for the output tensor.
    const std::size_t n = s->tokens().size() / static_cast<std::size_t>(images);
    streams.emplace_back(s->tokens().end() - static_cast<std::ptrdiff_t>(n), s->tokens().end());
    run.port_arrivals.push_back(s->arrival_cycles());
  }
  run.output = dfc::axis::unpack_port_streams(os, streams);
  return run;
}

nn::Conv2d make_random_conv(std::int64_t in_c, std::int64_t out_c, int k, int stride,
                            Activation act, std::uint64_t seed, int pad = 0) {
  nn::Conv2d conv(in_c, out_c, k, k, stride, act, pad);
  Rng rng(seed);
  conv.init_weights(rng);
  // Nonzero biases so the bias path is covered.
  for (auto& b : conv.mutable_biases()) b = rng.uniform(-0.5f, 0.5f);
  return conv;
}

Tensor random_input(const Shape3& s, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(s);
  for (float& v : t.flat()) v = rng.uniform(-1.0f, 1.0f);
  return t;
}

struct ConvCase {
  std::int64_t in_c, out_c;
  int k, stride, in_ports, out_ports;
};

class ConvCoreGolden : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvCoreGolden, MatchesReferenceConvolution) {
  const ConvCase c = GetParam();
  const nn::Conv2d conv = make_random_conv(c.in_c, c.out_c, c.k, c.stride, Activation::kTanh, 5);
  const Tensor input = random_input(Shape3{c.in_c, 10, 10}, 11);
  const ConvRun run = run_conv(conv, input, c.in_ports, c.out_ports);
  const Tensor want = conv.infer(input);
  EXPECT_LT(max_abs_diff(run.output, want), 2e-4) << "tree-adder reassociation tolerance";
}

TEST(ConvCoreTest, PaddedConvolutionMatchesReference) {
  const nn::Conv2d conv =
      make_random_conv(2, 4, 3, 1, Activation::kTanh, 81, /*pad=*/1);
  const Tensor input = random_input(Shape3{2, 10, 10}, 83);
  const ConvRun run = run_conv(conv, input, 1, 2);
  EXPECT_LT(max_abs_diff(run.output, conv.infer(input)), 2e-4);
}

TEST(ConvCoreTest, PaddedStridedConvolutionMatchesReference) {
  const nn::Conv2d conv =
      make_random_conv(3, 6, 5, 2, Activation::kRelu, 87, /*pad=*/2);
  const Tensor input = random_input(Shape3{3, 11, 11}, 89);
  const ConvRun run = run_conv(conv, input, 3, 1);
  EXPECT_LT(max_abs_diff(run.output, conv.infer(input)), 2e-4);
}

INSTANTIATE_TEST_SUITE_P(PortConfigs, ConvCoreGolden,
                         ::testing::Values(ConvCase{1, 1, 3, 1, 1, 1},
                                           ConvCase{1, 6, 5, 1, 1, 6},
                                           ConvCase{4, 8, 3, 1, 1, 1},
                                           ConvCase{4, 8, 3, 1, 2, 2},
                                           ConvCase{4, 8, 3, 1, 4, 8},
                                           ConvCase{6, 4, 3, 1, 3, 2},
                                           ConvCase{2, 2, 3, 2, 1, 2},
                                           ConvCase{3, 12, 5, 1, 1, 1},
                                           ConvCase{12, 6, 3, 1, 12, 6}));

TEST(ConvCoreTest, SteadyStateIntervalFollowsEq4) {
  // in_fm 4 over 1 port (gather 4 beats), out_fm 2 over 1 port (emit 2):
  // II = max(2, 4) = 4 cycles between positions at steady state.
  const nn::Conv2d conv = make_random_conv(4, 2, 3, 1, Activation::kNone, 7);
  const Tensor input = random_input(Shape3{4, 10, 10}, 13);
  const ConvRun run = run_conv(conv, input, 1, 1, /*images=*/3);
  const auto& arr = run.port_arrivals[0];
  ASSERT_GT(arr.size(), 40u);
  // Steady state: out_fm values per position, consecutive positions spaced
  // by II. Compare position starts late in the run.
  const std::size_t n = arr.size();
  const std::uint64_t d1 = arr[n - 1 - 2] - arr[n - 1 - 4];
  EXPECT_EQ(d1, 4u);
}

TEST(ConvCoreTest, EmissionBoundWhenOutputsDominate) {
  // in 1 FM / 1 port (gather 1), out 8 FM / 1 port (emit 8): II = 8.
  const nn::Conv2d conv = make_random_conv(1, 8, 3, 1, Activation::kNone, 9);
  const Tensor input = random_input(Shape3{1, 12, 12}, 15);
  const ConvRun run = run_conv(conv, input, 1, 1, 2);
  const auto& arr = run.port_arrivals[0];
  const std::size_t n = arr.size();
  // Positions are spaced 8 apart; within a position, values stream 1/cycle.
  const std::uint64_t position_gap = arr[n - 1 - 8] - arr[n - 1 - 16];
  EXPECT_EQ(position_gap, 8u);
  EXPECT_EQ(arr[n - 1] - arr[n - 2], 1u);
}

// Property sweep: the measured steady-state position interval must equal
// Eq. 4 for every port configuration (as long as upstream supply and
// downstream drain are not the bottleneck).
struct IiCase {
  std::int64_t in_fm, out_fm;
  int in_ports, out_ports;
};

class Eq4Property : public ::testing::TestWithParam<IiCase> {};

TEST_P(Eq4Property, MeasuredIntervalEqualsEq4) {
  const IiCase c = GetParam();
  const std::int64_t expected =
      std::max(c.out_fm / c.out_ports, c.in_fm / c.in_ports);
  const nn::Conv2d conv =
      make_random_conv(c.in_fm, c.out_fm, 3, 1, Activation::kNone, 77);
  const Tensor input = random_input(Shape3{c.in_fm, 8, 8}, 79);
  const ConvRun run = run_conv(conv, input, c.in_ports, c.out_ports, /*images=*/3);

  // Derive the position interval from the last emissions on port 0: beats
  // per position on that port = out_fm/out_ports.
  const auto& arr = run.port_arrivals[0];
  const auto beats = static_cast<std::size_t>(c.out_fm / c.out_ports);
  ASSERT_GT(arr.size(), 3 * beats);
  const std::uint64_t interval = arr[arr.size() - 1 - beats] - arr[arr.size() - 1 - 2 * beats];
  // Supply-bound cases deliver windows every in_fm/in_ports cycles at best,
  // so intervals below Eq. 4 are impossible; equality is the property.
  EXPECT_EQ(interval, static_cast<std::uint64_t>(expected))
      << "in " << c.in_fm << "/" << c.in_ports << " out " << c.out_fm << "/" << c.out_ports;
}

INSTANTIATE_TEST_SUITE_P(PortSweeps, Eq4Property,
                         ::testing::Values(IiCase{4, 4, 1, 1},   // II = 4 (tie)
                                           IiCase{4, 4, 4, 1},   // II = 4 emit-bound
                                           IiCase{4, 4, 1, 4},   // II = 4 gather-bound
                                           IiCase{4, 4, 2, 2},   // II = 2
                                           IiCase{4, 4, 4, 4},   // II = 1 fully parallel
                                           IiCase{6, 2, 2, 1},   // II = 3 gather-bound
                                           IiCase{2, 6, 1, 1},   // II = 6 emit-bound
                                           IiCase{8, 2, 4, 2},   // II = 2
                                           IiCase{1, 6, 1, 3},   // II = 2
                                           IiCase{12, 4, 6, 4}));  // II = 2

TEST(ConvCoreTest, ConfigValidation) {
  ConvCoreConfig cfg;
  cfg.in_ports = 2;
  cfg.in_fm = 3;  // not divisible
  cfg.out_fm = 2;
  cfg.out_positions = 4;
  cfg.weights.resize(3 * 2 * 1);
  cfg.biases.resize(2);
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(ConvCoreTest, PipelineLatencyFormula) {
  ConvCoreConfig cfg;
  cfg.in_ports = 1;
  cfg.kh = cfg.kw = 5;  // 25 products -> tree depth 5
  cfg.in_fm = 1;
  cfg.out_fm = 1;
  cfg.out_positions = 1;
  cfg.weights.resize(25);
  cfg.biases.resize(1);
  // 8 (mul) + 5*11 (tree) + 11 (accumulate) = 74.
  EXPECT_EQ(cfg.pipeline_latency(), 74);
}

// --- PoolCore ----------------------------------------------------------------

Tensor run_pool(PoolMode mode, const Tensor& input, int stride) {
  SimContext ctx;
  const Shape3 is = input.shape();
  WindowGeometry geom{is.w, is.h, 2, 2, stride, stride, is.c};
  auto& sf = ctx.add_fifo<Flit>("s", 4);
  auto& wf = ctx.add_fifo<Window>("w", 4);
  auto& of = ctx.add_fifo<Flit>("o", 4);
  ctx.add_process<dfc::sst::WindowBuffer>("wb", geom, sf, wf);
  PoolCoreConfig cfg;
  cfg.mode = mode;
  ctx.add_process<PoolCore>("pool", cfg, wf, of);
  ctx.add_process<VectorSource<Flit>>("src", sf, dfc::axis::pack_port_stream(input, 1, 0));
  auto& sink = ctx.add_process<VectorSink<Flit>>("sink", of);
  const Shape3 os{is.c, (is.h - 2) / stride + 1, (is.w - 2) / stride + 1};
  ctx.run_until([&] { return sink.count() == static_cast<std::size_t>(os.volume()); },
                1'000'000);
  return dfc::axis::unpack_port_streams(os, {sink.tokens()});
}

TEST(PoolCoreTest, MaxPoolMatchesReference) {
  const Tensor input = random_input(Shape3{3, 8, 8}, 17);
  nn::Pool2d ref(PoolMode::kMax, 2, 2, 2);
  EXPECT_TRUE(tensors_close(run_pool(PoolMode::kMax, input, 2), ref.infer(input), 0.0f, 0.0f));
}

TEST(PoolCoreTest, MeanPoolMatchesReference) {
  const Tensor input = random_input(Shape3{3, 8, 8}, 19);
  nn::Pool2d ref(PoolMode::kMean, 2, 2, 2);
  EXPECT_LT(max_abs_diff(run_pool(PoolMode::kMean, input, 2), ref.infer(input)), 1e-6);
}

TEST(PoolCoreTest, OverlappingStrideOne) {
  const Tensor input = random_input(Shape3{2, 6, 6}, 21);
  nn::Pool2d ref(PoolMode::kMax, 2, 2, 1);
  EXPECT_TRUE(tensors_close(run_pool(PoolMode::kMax, input, 1), ref.infer(input), 0.0f, 0.0f));
}

// --- FcnCore -----------------------------------------------------------------

struct FcnRun {
  std::vector<float> output;
  std::uint64_t cycles = 0;
  std::uint64_t lane_stalls = 0;
  std::vector<std::uint64_t> arrivals;
};

FcnRun run_fcn(const nn::Linear& layer, const Tensor& input, int num_acc, int images = 1) {
  SimContext ctx;
  auto& in = ctx.add_fifo<Flit>("in", 4);
  auto& out = ctx.add_fifo<Flit>("out", 4);
  FcnCoreConfig cfg;
  cfg.in_count = layer.in_count();
  cfg.out_count = layer.out_count();
  cfg.weights = layer.weights();
  cfg.biases = layer.biases();
  cfg.activation = layer.activation();
  cfg.num_accumulators = num_acc;
  auto& core = ctx.add_process<FcnCore>("fcn", cfg, in, out);

  std::vector<Flit> stream;
  for (int i = 0; i < images; ++i) {
    const auto one = dfc::axis::pack_port_stream(input.reshaped_flat(), 1, 0);
    stream.insert(stream.end(), one.begin(), one.end());
  }
  ctx.add_process<VectorSource<Flit>>("src", in, std::move(stream));
  auto& sink = ctx.add_process<VectorSink<Flit>>("sink", out);

  FcnRun run;
  const std::size_t want =
      static_cast<std::size_t>(layer.out_count()) * static_cast<std::size_t>(images);
  run.cycles = ctx.run_until([&] { return sink.count() == want; }, 1'000'000);
  const std::size_t n = sink.tokens().size() / static_cast<std::size_t>(images);
  for (std::size_t i = sink.tokens().size() - n; i < sink.tokens().size(); ++i) {
    run.output.push_back(sink.tokens()[i].data);
  }
  run.lane_stalls = core.lane_stall_cycles();
  run.arrivals = sink.arrival_cycles();
  return run;
}

nn::Linear make_random_linear(std::int64_t in, std::int64_t out, Activation act,
                              std::uint64_t seed) {
  nn::Linear lin(in, out, act);
  Rng rng(seed);
  lin.init_weights(rng);
  for (auto& b : lin.mutable_biases()) b = rng.uniform(-0.5f, 0.5f);
  return lin;
}

class FcnCoreGolden : public ::testing::TestWithParam<int> {};

TEST_P(FcnCoreGolden, MatchesReferenceForAnyLaneCount) {
  const int lanes = GetParam();
  const nn::Linear lin = make_random_linear(64, 10, Activation::kTanh, 23);
  const Tensor input = random_input(Shape3{64, 1, 1}, 29);
  const FcnRun run = run_fcn(lin, input, lanes);
  const Tensor want = lin.infer(input);
  for (std::int64_t j = 0; j < 10; ++j) {
    EXPECT_NEAR(run.output[static_cast<std::size_t>(j)], want[j], 2e-4f) << "lanes " << lanes;
  }
}

INSTANTIATE_TEST_SUITE_P(LaneCounts, FcnCoreGolden, ::testing::Values(1, 2, 4, 11, 16));

TEST(FcnCoreTest, EnoughLanesGiveUnitIINoStalls) {
  const nn::Linear lin = make_random_linear(64, 10, Activation::kNone, 31);
  const Tensor input = random_input(Shape3{64, 1, 1}, 37);
  const FcnRun run = run_fcn(lin, input, /*num_acc=*/11);
  EXPECT_EQ(run.lane_stalls, 0u);
}

TEST(FcnCoreTest, TooFewLanesStallTheStream) {
  const nn::Linear lin = make_random_linear(64, 10, Activation::kNone, 31);
  const Tensor input = random_input(Shape3{64, 1, 1}, 37);
  const FcnRun one_lane = run_fcn(lin, input, /*num_acc=*/1);
  const FcnRun full = run_fcn(lin, input, /*num_acc=*/11);
  EXPECT_GT(one_lane.lane_stalls, 0u);
  EXPECT_GT(one_lane.cycles, full.cycles);
  // One accumulator serializes at the add latency: ~11 cycles per input.
  EXPECT_GE(one_lane.cycles, 64u * 11u);
}

TEST(FcnCoreTest, BackToBackImagesOverlapInputAndEmission) {
  const nn::Linear lin = make_random_linear(32, 8, Activation::kNone, 41);
  const Tensor input = random_input(Shape3{32, 1, 1}, 43);
  const FcnRun run = run_fcn(lin, input, 11, /*images=*/6);
  // Steady state: one image per max(in_count, out_count) = 32 cycles, so 6
  // images take well under 6 * (32 + drain).
  EXPECT_LT(run.cycles, 6u * 32u + 200u);
}

TEST(FcnCoreTest, DrainLatencyFormula) {
  FcnCoreConfig cfg;
  cfg.in_count = 4;
  cfg.out_count = 2;
  cfg.num_accumulators = 11;
  cfg.weights.resize(8);
  cfg.biases.resize(2);
  // 8 (mul) + 11 (add) + ceil(log2(11)) = 4 levels * 11 = 44 -> 63.
  EXPECT_EQ(cfg.drain_latency(), 63);
}

// --- MAC kernels against the scalar evaluation order --------------------------

// Finite values that expose any reassociation or fused rounding: 1e8 next to
// 1 (1e8 + 1 rounds back to 1e8), signed zeros and subnormals, mixed with
// ordinary magnitudes.
std::vector<float> adversarial_values(std::size_t n, std::uint64_t seed) {
  static constexpr float kSpecial[] = {1e8f, -1e8f, 1.0f, -1.0f, -0.0f, 0.0f, 1e-40f, -3e-39f};
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.bernoulli(0.5) ? kSpecial[rng.next_below(std::size(kSpecial))]
                           : rng.uniform(-2.0f, 2.0f);
  }
  return v;
}

std::vector<std::uint32_t> bits(std::span<const float> v) {
  std::vector<std::uint32_t> out;
  for (float x : v) out.push_back(std::bit_cast<std::uint32_t>(x));
  return out;
}

struct ConvKernelCase {
  std::int64_t out_fm;
  int in_ports;
  std::int64_t taps;  ///< products per beat = in_ports * taps
};

class ConvMacKernelDiff : public ::testing::TestWithParam<ConvKernelCase> {};

TEST_P(ConvMacKernelDiff, BitIdenticalToTreeReducePerOutputAndBeat) {
  const ConvKernelCase c = GetParam();
  const std::int64_t groups = 3;
  const std::int64_t in_fm = groups * c.in_ports;
  const std::int64_t products = c.in_ports * c.taps;
  const std::vector<float> weights =
      adversarial_values(static_cast<std::size_t>(c.out_fm * in_fm * c.taps), 101);
  const std::vector<float> biases = adversarial_values(static_cast<std::size_t>(c.out_fm), 103);
  const ConvMacKernel kernel(in_fm, c.out_fm, c.in_ports, c.taps, weights, biases);

  std::vector<float> acc(static_cast<std::size_t>(c.out_fm));
  std::vector<float> want = biases;
  kernel.seed(acc);
  ASSERT_EQ(bits(acc), bits(want));
  std::vector<float> beat_products(static_cast<std::size_t>(products));
  for (std::int64_t g = 0; g < groups; ++g) {
    const std::vector<float> x =
        adversarial_values(static_cast<std::size_t>(products), 107 + static_cast<std::uint64_t>(g));
    kernel.beat(g, x, acc);
    for (std::int64_t k = 0; k < c.out_fm; ++k) {
      for (std::int64_t n = 0; n < products; ++n) {
        const std::int64_t ch = g * c.in_ports + n / c.taps;
        beat_products[static_cast<std::size_t>(n)] =
            weights[static_cast<std::size_t>((k * in_fm + ch) * c.taps + n % c.taps)] *
            x[static_cast<std::size_t>(n)];
      }
      want[static_cast<std::size_t>(k)] += tree_reduce(beat_products);
    }
    EXPECT_EQ(bits(acc), bits(want)) << "after beat " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LaneTailsAndProductCounts, ConvMacKernelDiff,
    ::testing::Values(ConvKernelCase{1, 1, 1}, ConvKernelCase{7, 2, 1}, ConvKernelCase{8, 1, 3},
                      ConvKernelCase{9, 1, 25}, ConvKernelCase{36, 2, 25},
                      ConvKernelCase{7, 6, 25}, ConvKernelCase{9, 3, 1},
                      ConvKernelCase{36, 1, 2}, ConvKernelCase{8, 6, 25}),
    [](const ::testing::TestParamInfo<ConvKernelCase>& p) {
      return "out" + std::to_string(p.param.out_fm) + "_ports" +
             std::to_string(p.param.in_ports) + "_taps" + std::to_string(p.param.taps);
    });

struct FcnKernelCase {
  std::int64_t out_count;
  int num_accumulators;
};

class FcnMacKernelDiff : public ::testing::TestWithParam<FcnKernelCase> {};

TEST_P(FcnMacKernelDiff, BitIdenticalToScalarLaneInterleave) {
  const FcnKernelCase c = GetParam();
  for (const std::int64_t in_count : {std::int64_t{1}, std::int64_t{37}, std::int64_t{900}}) {
    const std::vector<float> weights =
        adversarial_values(static_cast<std::size_t>(in_count * c.out_count), 211);
    const std::vector<float> biases =
        adversarial_values(static_cast<std::size_t>(c.out_count), 223);
    const std::vector<float> x = adversarial_values(static_cast<std::size_t>(in_count), 227);
    const FcnMacKernel kernel(in_count, c.out_count, c.num_accumulators, weights, biases);

    // FcnCore's evaluation: input i lands on lane i % num_accumulators, lane
    // 0 starts from the bias, and the lanes drain through the tree adder.
    std::vector<float> want(static_cast<std::size_t>(c.out_count));
    std::vector<float> lanes(static_cast<std::size_t>(c.num_accumulators));
    for (std::int64_t j = 0; j < c.out_count; ++j) {
      std::fill(lanes.begin(), lanes.end(), 0.0f);
      lanes[0] = biases[static_cast<std::size_t>(j)];
      for (std::int64_t i = 0; i < in_count; ++i) {
        lanes[static_cast<std::size_t>(i % c.num_accumulators)] +=
            weights[static_cast<std::size_t>(j * in_count + i)] * x[static_cast<std::size_t>(i)];
      }
      want[static_cast<std::size_t>(j)] = tree_reduce(lanes);
    }

    // The whole stream in one call (FunctionalModel) and one input per call
    // (FcnCore) must both reproduce it.
    std::vector<float> acc(kernel.acc_size());
    std::vector<float> got(static_cast<std::size_t>(c.out_count));
    kernel.seed(acc);
    kernel.accumulate(0, x, acc);
    kernel.drain(acc, got);
    EXPECT_EQ(bits(got), bits(want)) << "whole stream, in_count " << in_count;

    kernel.seed(acc);
    for (std::int64_t i = 0; i < in_count; ++i) {
      kernel.accumulate(i, std::span<const float>(&x[static_cast<std::size_t>(i)], 1), acc);
    }
    kernel.drain(acc, got);
    EXPECT_EQ(bits(got), bits(want)) << "one input per call, in_count " << in_count;
  }
}

INSTANTIATE_TEST_SUITE_P(LaneTailsAndAccumulators, FcnMacKernelDiff,
                         ::testing::Values(FcnKernelCase{1, 1}, FcnKernelCase{10, 2},
                                           FcnKernelCase{84, 11}, FcnKernelCase{84, 16},
                                           FcnKernelCase{10, 11}, FcnKernelCase{1, 16},
                                           FcnKernelCase{84, 1}, FcnKernelCase{10, 16}),
                         [](const ::testing::TestParamInfo<FcnKernelCase>& p) {
                           return "out" + std::to_string(p.param.out_count) + "_acc" +
                                  std::to_string(p.param.num_accumulators);
                         });

TEST(MacKernelTest, RejectsInconsistentShapes) {
  const std::vector<float> w(12);
  const std::vector<float> b(2);
  EXPECT_THROW(ConvMacKernel(3, 2, 2, 2, w, b), ConfigError);  // 3 FMs over 2 ports
  EXPECT_THROW(ConvMacKernel(3, 2, 1, 3, w, b), ConfigError);  // 18 weights expected
  EXPECT_THROW(FcnMacKernel(6, 2, 0, w, b), ConfigError);      // no accumulator lane
  EXPECT_THROW(FcnMacKernel(4, 3, 11, w, b), ConfigError);     // 3 biases expected
}

}  // namespace
}  // namespace dfc::hls
