// Microbenchmarks (google-benchmark) of the simulator building blocks: FIFO
// transfer, window buffer streaming, conv-core cycles, golden convolution,
// the conv MAC kernel, the window hand-off into a pool core, and
// whole-accelerator simulation throughput.
//
// Fixed Iterations(...) keep the smoke-suite cost bounded: these numbers gate
// order-of-magnitude regressions, not single-percent ones, and letting
// google-benchmark calibrate (even with MinTime(0.1)) dominated the whole
// bench suite. Counts are sized for ~10-50 ms per instance on a laptop core.
#include <benchmark/benchmark.h>

#include "axis/flit.hpp"
#include "common/rng.hpp"
#include "core/harness.hpp"
#include "core/presets.hpp"
#include "dataflow/endpoints.hpp"
#include "dataflow/sim_context.hpp"
#include "hlscore/mac_kernel.hpp"
#include "hlscore/pool_core.hpp"
#include "nn/conv2d.hpp"
#include "report/experiments.hpp"
#include "sst/window_buffer.hpp"

namespace {

using dfc::axis::Flit;

void BM_FifoPushPop(benchmark::State& state) {
  dfc::df::Fifo<int> f("f", 2);
  int x = 0;
  for (auto _ : state) {
    f.push(x);
    f.commit();
    benchmark::DoNotOptimize(f.pop());
    f.commit();
    ++x;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoPushPop)->Iterations(2'000'000);

void BM_SourceSinkCyclePerToken(benchmark::State& state) {
  dfc::df::SimContext ctx;
  auto& f = ctx.add_fifo<int>("chan", 2);
  std::vector<int> tokens(1 << 16);
  auto& src = ctx.add_process<dfc::df::VectorSource<int>>("src", f, tokens);
  auto& sink = ctx.add_process<dfc::df::VectorSink<int>>("sink", f);
  for (auto _ : state) {
    state.PauseTiming();
    ctx.reset();
    state.ResumeTiming();
    ctx.run_until([&] { return sink.count() == tokens.size(); });
  }
  (void)src;
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(tokens.size()));
}
BENCHMARK(BM_SourceSinkCyclePerToken)->Iterations(20);

void BM_WindowBufferStream(benchmark::State& state) {
  const dfc::sst::WindowGeometry g{32, 32, 5, 5, 1, 1, 3};
  dfc::Rng rng(1);
  dfc::Tensor img(dfc::Shape3{3, 32, 32});
  for (float& v : img.flat()) v = rng.next_float();
  const auto stream = dfc::axis::pack_port_stream(img, 1, 0);

  for (auto _ : state) {
    state.PauseTiming();
    dfc::df::SimContext ctx;
    auto& in = ctx.add_fifo<Flit>("in", 4);
    auto& out = ctx.add_fifo<dfc::sst::Window>("out", 4);
    ctx.add_process<dfc::sst::WindowBuffer>("wb", g, in, out);
    ctx.add_process<dfc::df::VectorSource<Flit>>("src", in, stream);
    auto& sink = ctx.add_process<dfc::df::VectorSink<dfc::sst::Window>>("sink", out);
    const auto want = static_cast<std::size_t>(g.windows_per_image());
    state.ResumeTiming();
    ctx.run_until([&] { return sink.count() == want; });
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_WindowBufferStream)->Iterations(20);

void BM_GoldenConv5x5(benchmark::State& state) {
  dfc::nn::Conv2d conv(3, 12, 5, 5);
  dfc::Rng rng(2);
  conv.init_weights(rng);
  dfc::Tensor img(dfc::Shape3{3, 32, 32});
  for (float& v : img.flat()) v = rng.next_float();
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.infer(img));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GoldenConv5x5)->Iterations(50);

// One gather beat of the conv MAC kernel (both engines' hot loop) at TC2's
// shapes, 12 and 36 output FMs x 25 products, and at AlexNet-mini's two-port
// conv2 beat, 32 x 50. Items are multiply-accumulates.
void BM_ConvMacBeat(benchmark::State& state) {
  const std::int64_t out_fm = state.range(0);
  const auto in_ports = static_cast<int>(state.range(1));
  const std::int64_t taps = 25;
  dfc::Rng rng(3);
  std::vector<float> weights(static_cast<std::size_t>(out_fm * in_ports * taps));
  for (float& w : weights) w = rng.uniform(-1.0f, 1.0f);
  const std::vector<float> biases(static_cast<std::size_t>(out_fm), 0.0f);
  const dfc::hls::ConvMacKernel kernel(in_ports, out_fm, in_ports, taps, weights, biases);
  std::vector<float> x(static_cast<std::size_t>(kernel.beat_inputs()));
  for (float& v : x) v = rng.next_float();
  std::vector<float> acc(static_cast<std::size_t>(out_fm));
  kernel.seed(acc);
  for (auto _ : state) {
    kernel.beat(0, x, acc);
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * out_fm * kernel.beat_inputs());
}
BENCHMARK(BM_ConvMacBeat)->Args({12, 1})->Args({36, 1})->Args({32, 2})->Iterations(100'000);

// The SST window hand-off: a WindowBuffer builds the 5x5 windows of a
// 32x32x3 map in their Fifo<Window> slots and a max-pool core reads each in
// place. The time_per_window counter is host time per window, line-buffer
// fill and pool output included.
void BM_WindowHandoff(benchmark::State& state) {
  const dfc::sst::WindowGeometry g{32, 32, 5, 5, 1, 1, 3};
  dfc::Rng rng(4);
  dfc::Tensor img(dfc::Shape3{3, 32, 32});
  for (float& v : img.flat()) v = rng.next_float();

  dfc::df::SimContext ctx;
  auto& in = ctx.add_fifo<Flit>("in", 4);
  auto& win = ctx.add_fifo<dfc::sst::Window>("win", 4);
  auto& out = ctx.add_fifo<Flit>("out", 4);
  ctx.add_process<dfc::df::VectorSource<Flit>>("src", in, dfc::axis::pack_port_stream(img, 1, 0));
  ctx.add_process<dfc::sst::WindowBuffer>("wb", g, in, win);
  dfc::hls::PoolCoreConfig pool;
  pool.kh = g.kh;
  pool.kw = g.kw;
  ctx.add_process<dfc::hls::PoolCore>("pool", pool, win, out);
  auto& sink = ctx.add_process<dfc::df::VectorSink<Flit>>("sink", out);
  const auto windows = static_cast<std::size_t>(g.windows_per_image());
  for (auto _ : state) {
    state.PauseTiming();
    ctx.reset();
    state.ResumeTiming();
    ctx.run_until([&] { return sink.count() == windows; });
    benchmark::DoNotOptimize(sink.tokens().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(windows));
  state.counters["time_per_window"] = benchmark::Counter(
      static_cast<double>(windows),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_WindowHandoff)->Iterations(200);

void BM_UspsAcceleratorImage(benchmark::State& state) {
  const auto spec = dfc::core::make_usps_spec();
  dfc::core::AcceleratorHarness harness(dfc::core::build_accelerator(spec));
  const auto images = dfc::report::random_images(spec, 8);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const auto r = harness.run_batch(images);
    cycles += r.total_cycles();
    benchmark::DoNotOptimize(r.outputs.size());
  }
  state.SetItemsProcessed(state.iterations() * 8);
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_UspsAcceleratorImage)->Iterations(20);

void BM_CifarAcceleratorImage(benchmark::State& state) {
  const auto spec = dfc::core::make_cifar_spec();
  dfc::core::AcceleratorHarness harness(dfc::core::build_accelerator(spec));
  const auto images = dfc::report::random_images(spec, 2);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const auto r = harness.run_batch(images);
    cycles += r.total_cycles();
    benchmark::DoNotOptimize(r.outputs.size());
  }
  state.SetItemsProcessed(state.iterations() * 2);
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CifarAcceleratorImage)->Iterations(5);

}  // namespace

BENCHMARK_MAIN();
