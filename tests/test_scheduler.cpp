// Tests for the activity-aware scheduler and the measurement-integrity
// fixes: naive/active bit-equivalence (including the paranoid lockstep
// checker), fast-forward over idle windows, per-batch FIFO statistics, the
// run-to-run determinism of the harness, pinned engine traffic, and
// CsvWriter failure detection.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "common/csv.hpp"
#include "core/dma.hpp"
#include "core/harness.hpp"
#include "core/presets.hpp"
#include "dataflow/sim_context.hpp"
#include "multifpga/exec.hpp"
#include "multifpga/partition.hpp"
#include "report/experiments.hpp"

namespace dfc::core {
namespace {

using dfc::df::Fifo;
using dfc::df::SimContext;

struct FifoStatsSnapshot {
  std::vector<dfc::df::FifoStats> stats;

  static FifoStatsSnapshot capture(const SimContext& ctx) {
    FifoStatsSnapshot s;
    for (std::size_t i = 0; i < ctx.fifo_count(); ++i) s.stats.push_back(ctx.fifo(i).stats());
    return s;
  }
};

void expect_same_stats(const FifoStatsSnapshot& a, const FifoStatsSnapshot& b) {
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].pushes, b.stats[i].pushes) << "fifo " << i;
    EXPECT_EQ(a.stats[i].pops, b.stats[i].pops) << "fifo " << i;
    EXPECT_EQ(a.stats[i].max_occupancy, b.stats[i].max_occupancy) << "fifo " << i;
    EXPECT_EQ(a.stats[i].full_stall_cycles, b.stats[i].full_stall_cycles) << "fifo " << i;
  }
}

void expect_same_result(const BatchResult& a, const BatchResult& b) {
  EXPECT_EQ(a.inject_cycles, b.inject_cycles);
  EXPECT_EQ(a.completion_cycles, b.completion_cycles);
  EXPECT_EQ(a.outputs, b.outputs);
}

// --- determinism across harness resets -----------------------------------------

TEST(SchedulerTest, RepeatedBatchIsDeterministicIncludingStats) {
  const NetworkSpec spec = make_usps_spec(11);
  AcceleratorHarness harness(build_accelerator(spec));
  const auto images = dfc::report::random_images(spec, 6);

  const BatchResult r1 = harness.run_batch(images);
  const auto s1 = FifoStatsSnapshot::capture(*harness.accelerator().ctx);

  const BatchResult r2 = harness.run_batch(images);
  const auto s2 = FifoStatsSnapshot::capture(*harness.accelerator().ctx);

  expect_same_result(r1, r2);
  // Pre-fix, statistics leaked across batches: the second run reported the
  // sum of both. The harness reset must yield per-batch numbers.
  expect_same_stats(s1, s2);
}

TEST(SchedulerTest, HarnessResetZeroesMeasurementStatsKeepsLifetime) {
  const NetworkSpec spec = make_usps_spec(11);
  AcceleratorHarness harness(build_accelerator(spec));
  const auto images = dfc::report::random_images(spec, 2);
  harness.run_batch(images);

  const auto& ctx = *harness.accelerator().ctx;
  std::uint64_t lifetime_pushes = 0;
  for (std::size_t i = 0; i < ctx.fifo_count(); ++i) {
    lifetime_pushes += ctx.fifo(i).lifetime_stats().pushes;
  }
  ASSERT_GT(lifetime_pushes, 0u);

  harness.reset();
  std::uint64_t measurement_pushes = 0;
  std::uint64_t lifetime_after = 0;
  for (std::size_t i = 0; i < ctx.fifo_count(); ++i) {
    measurement_pushes += ctx.fifo(i).stats().pushes;
    lifetime_after += ctx.fifo(i).lifetime_stats().pushes;
  }
  EXPECT_EQ(measurement_pushes, 0u);
  EXPECT_EQ(lifetime_after, lifetime_pushes);
}

// --- naive vs active equivalence -----------------------------------------------

void expect_naive_active_equal(const NetworkSpec& spec, std::size_t batch) {
  const auto images = dfc::report::random_images(spec, batch);

  AcceleratorHarness active(build_accelerator(spec));
  AcceleratorHarness naive(build_accelerator(spec));
  naive.accelerator().ctx->set_activity_aware(false);

  const BatchResult ra = active.run_batch(images);
  const BatchResult rn = naive.run_batch(images);

  expect_same_result(ra, rn);
  EXPECT_EQ(active.accelerator().ctx->cycle(), naive.accelerator().ctx->cycle());
  expect_same_stats(FifoStatsSnapshot::capture(*active.accelerator().ctx),
                    FifoStatsSnapshot::capture(*naive.accelerator().ctx));
}

TEST(SchedulerTest, ActiveMatchesNaiveOnUsps) {
  expect_naive_active_equal(make_usps_spec(3), 5);
}

TEST(SchedulerTest, ActiveMatchesNaiveOnCifar) {
  expect_naive_active_equal(make_cifar_spec(3), 2);
}

TEST(SchedulerTest, ActiveMatchesNaiveSequentialMode) {
  const NetworkSpec spec = make_usps_spec(5);
  const auto images = dfc::report::random_images(spec, 3);
  AcceleratorHarness active(build_accelerator(spec));
  AcceleratorHarness naive(build_accelerator(spec));
  naive.accelerator().ctx->set_activity_aware(false);
  expect_same_result(active.run_sequential(images), naive.run_sequential(images));
  EXPECT_EQ(active.accelerator().ctx->cycle(), naive.accelerator().ctx->cycle());
}

// --- paranoid lockstep mode ----------------------------------------------------

TEST(SchedulerTest, ParanoidModePassesOnUsps) {
  const NetworkSpec spec = make_usps_spec(7);
  AcceleratorHarness harness(build_accelerator(spec));
  harness.accelerator().ctx->set_paranoid(true);
  const auto images = dfc::report::random_images(spec, 4);
  const BatchResult r = harness.run_batch(images);
  EXPECT_EQ(r.batch_size(), 4u);
}

TEST(SchedulerTest, ParanoidModePassesOnCifar) {
  const NetworkSpec spec = make_cifar_spec(7);
  AcceleratorHarness harness(build_accelerator(spec));
  harness.accelerator().ctx->set_paranoid(true);
  const auto images = dfc::report::random_images(spec, 2);
  const BatchResult r = harness.run_batch(images);
  EXPECT_EQ(r.batch_size(), 2u);
}

TEST(SchedulerTest, ParanoidMatchesActiveOutputs) {
  // Windows travel through push_slot()/take(): paranoid mode proves the
  // scheduler counts those as FIFO side effects, on both presets.
  for (const auto& [spec, batch] : {std::pair{make_usps_spec(9), std::size_t{3}},
                                     std::pair{make_cifar_spec(9), std::size_t{2}}}) {
    const auto images = dfc::report::random_images(spec, batch);
    AcceleratorHarness active(build_accelerator(spec));
    AcceleratorHarness paranoid(build_accelerator(spec));
    paranoid.accelerator().ctx->set_paranoid(true);
    expect_same_result(active.run_batch(images), paranoid.run_batch(images));
    expect_same_stats(FifoStatsSnapshot::capture(*active.accelerator().ctx),
                      FifoStatsSnapshot::capture(*paranoid.accelerator().ctx));
  }
}

// --- pinned engine traffic -----------------------------------------------------
//
// FNV-1a 64 pins of how a 4-image batch travels through the cycle engine:
// every FIFO's lifetime (name, pushes, pops, full stalls, max occupancy) in
// registration order, each image's inject and completion cycle, and the
// logits' bits. Logits alone cannot see a token delivered late or a FIFO
// filled deeper. The pins were computed before window tokens were built and
// read in their FIFO slots.

class Fnv1a {
 public:
  void add(const std::string& s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t traffic_hash(const std::vector<const SimContext*>& contexts, const BatchResult& r) {
  Fnv1a h;
  for (const SimContext* ctx : contexts) {
    for (std::size_t i = 0; i < ctx->fifo_count(); ++i) {
      const dfc::df::FifoStats& s = ctx->fifo(i).lifetime_stats();
      h.add(ctx->fifo(i).name());
      for (const std::uint64_t v : {s.pushes, s.pops, s.full_stall_cycles,
                                    std::uint64_t{s.max_occupancy}}) {
        h.add(v);
      }
    }
  }
  for (const std::uint64_t c : r.inject_cycles) h.add(c);
  for (const std::uint64_t c : r.completion_cycles) h.add(c);
  for (const std::vector<float>& logits : r.outputs) {
    for (const float v : logits) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      h.add(std::uint64_t{bits});
    }
  }
  return h.value();
}

std::uint64_t single_board_traffic(const NetworkSpec& spec) {
  AcceleratorHarness harness(build_accelerator(spec));
  const BatchResult r = harness.run_batch(dfc::report::random_images(spec, 4));
  EXPECT_TRUE(r.ok());
  return traffic_hash({harness.accelerator().ctx.get()}, r);
}

TEST(EngineTrafficPinTest, Usps) {
  const std::uint64_t h = single_board_traffic(make_usps_spec());
  EXPECT_EQ(h, 0xcd634a89750310aeULL) << std::hex << "0x" << h;
}

TEST(EngineTrafficPinTest, UspsOnFilterChains) {
  // The element-level chain's WindowAssembler produces the windows.
  NetworkSpec spec = make_usps_spec();
  for (auto& layer : spec.layers) {
    if (auto* conv = std::get_if<ConvLayerSpec>(&layer)) conv->use_filter_chain = true;
  }
  const std::uint64_t h = single_board_traffic(spec);
  EXPECT_EQ(h, 0xce8c4ed506eee3a7ULL) << std::hex << "0x" << h;
}

TEST(EngineTrafficPinTest, Cifar) {
  const std::uint64_t h = single_board_traffic(make_cifar_spec());
  EXPECT_EQ(h, 0xc6f8ae44d5ecb1feULL) << std::hex << "0x" << h;
}

TEST(EngineTrafficPinTest, AlexnetMiniOnFourBoards) {
  const NetworkSpec spec = make_alexnet_mini_spec();
  dfc::mfpga::MultiFpgaHarness harness(dfc::mfpga::build_multi_fpga(
      spec, dfc::mfpga::partition_network_exact(spec, 4, {}).layer_device));
  const BatchResult r = harness.run_batch(dfc::report::random_images(spec, 4));
  EXPECT_TRUE(r.ok());
  std::vector<const SimContext*> contexts;
  for (std::size_t d = 0; d < harness.device_count(); ++d) {
    contexts.push_back(&harness.device_context(d));
  }
  const std::uint64_t h = traffic_hash(contexts, r);
  EXPECT_EQ(h, 0x85a8b1a8b5553f25ULL) << std::hex << "0x" << h;
}

// --- fast-forward --------------------------------------------------------------

TEST(FastForwardTest, JumpsIdleWindowOfThrottledDma) {
  // A heavily throttled source leaves long provably-idle gaps between words.
  SimContext ctx;
  auto& chan = ctx.add_fifo<dfc::axis::Flit>("chan", 4);
  auto& src = ctx.add_process<DmaSource>("src", chan, Shape3{1, 4, 4}, 25);
  auto& sink = ctx.add_process<DmaSink>("sink", chan, 16, 1);
  (void)src;

  Tensor img(Shape3{1, 4, 4});
  for (std::size_t i = 0; i < img.flat().size(); ++i) {
    img.flat()[i] = static_cast<float>(i);
  }
  src.enqueue(img);

  // Step through the first transfer, then hit the idle gap: fast_forward
  // must jump a nonzero distance towards the next send slot.
  ctx.step();  // word 0 pushed
  ctx.step();  // word 0 popped by the sink
  ctx.step();  // nothing can move: idle
  const std::uint64_t jumped = ctx.fast_forward();
  EXPECT_GT(jumped, 0u);

  ctx.run_until([&] { return sink.images_completed() >= 1; });

  // The full run lands on the same cycle as the naive loop.
  SimContext ref;
  auto& rchan = ref.add_fifo<dfc::axis::Flit>("chan", 4);
  auto& rsrc = ref.add_process<DmaSource>("src", rchan, Shape3{1, 4, 4}, 25);
  auto& rsink = ref.add_process<DmaSink>("sink", rchan, 16, 1);
  ref.set_activity_aware(false);
  rsrc.enqueue(img);
  ref.run_until([&] { return rsink.images_completed() >= 1; });

  EXPECT_EQ(sink.completion_cycles(), rsink.completion_cycles());
  EXPECT_EQ(sink.outputs(), rsink.outputs());
}

TEST(FastForwardTest, DeadlockFiresAtSameCycleAsNaive) {
  // A source with no consumer fills the FIFO and stalls forever; both
  // schedulers must report the deadlock after exactly idle_limit cycles.
  auto run_one = [](bool active) {
    SimContext ctx;
    ctx.set_activity_aware(active);
    ctx.set_idle_limit(500);
    auto& chan = ctx.add_fifo<dfc::axis::Flit>("chan", 2);
    auto& src = ctx.add_process<DmaSource>("src", chan, Shape3{1, 2, 2}, 1);
    Tensor img(Shape3{1, 2, 2});
    src.enqueue(img);
    try {
      ctx.run_until([] { return false; }, 1'000'000);
    } catch (const SimError&) {
      return ctx.cycle();
    }
    ADD_FAILURE() << "expected deadlock";
    return std::uint64_t{0};
  };
  EXPECT_EQ(run_one(true), run_one(false));
}

// --- steady interval median ----------------------------------------------------

TEST(BatchResultTest, SteadyIntervalIsMedianOfTrailingIntervals) {
  BatchResult r;
  // Intervals: 100 x4, then one 160 hiccup. The window holds the trailing
  // min(8, ceil(5/2)) = 3 intervals; their median rejects the hiccup.
  r.completion_cycles = {1000, 1100, 1200, 1300, 1400, 1560};
  r.outputs.resize(6);
  EXPECT_EQ(r.completion_intervals(),
            (std::vector<std::uint64_t>{100, 100, 100, 100, 160}));
  EXPECT_EQ(r.steady_interval_cycles(), 100u);

  BatchResult two;
  two.completion_cycles = {10, 30};
  two.outputs.resize(2);
  EXPECT_EQ(two.steady_interval_cycles(), 20u);

  // Even window: mean of the middle pair. Three intervals -> window of 2,
  // which also drops the leading fill interval (100).
  BatchResult even;
  even.completion_cycles = {0, 100, 110, 130};  // intervals 100, 10, 20
  even.outputs.resize(4);
  EXPECT_EQ(even.steady_interval_cycles(), 15u);
}

TEST(BatchResultTest, SteadyIntervalOfShortBatchExcludesFillTransient) {
  // Regression: with a batch of 3 the first completion gap still contains
  // pipeline fill (the first image's whole latency leaks into it). The old
  // window of min(8, n-1) intervals averaged the transient in and reported
  // 333 for a design whose steady interval is 266; the window must never
  // cover more than the trailing half.
  BatchResult r;
  r.completion_cycles = {400, 800, 1066};  // intervals 400 (fill), 266
  r.outputs.resize(3);
  EXPECT_EQ(r.steady_interval_cycles(), 266u);
}

TEST(BatchResultTest, EmptyAndSingleImageBatchesAreGuarded) {
  // The serve path legitimately produces size-1 batches under light load;
  // the degenerate metrics must yield 0, not divide by zero or throw.
  BatchResult empty;
  EXPECT_EQ(empty.batch_size(), 0u);
  EXPECT_EQ(empty.mean_cycles_per_image(), 0.0);
  EXPECT_EQ(empty.steady_interval_cycles(), 0u);
  EXPECT_TRUE(empty.completion_intervals().empty());

  BatchResult single;
  single.start_cycle = 100;
  single.end_cycle = 400;
  single.inject_cycles = {100};
  single.completion_cycles = {400};
  single.outputs.resize(1);
  EXPECT_EQ(single.mean_cycles_per_image(), 300.0);
  EXPECT_EQ(single.steady_interval_cycles(), 0u);
  EXPECT_TRUE(single.completion_intervals().empty());
}

// --- CsvWriter failure detection -----------------------------------------------

TEST(CsvWriterTest, ThrowsOnUnopenablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_dfcnn/x.csv", {"a"}), ConfigError);
}

TEST(CsvWriterTest, FlushDetectsUnwritableDevice) {
  // /dev/full accepts the open but fails on the first flushed write.
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full not available";
  std::fclose(probe);

  CsvWriter csv("/dev/full", {"a", "b"});
  EXPECT_THROW(
      {
        for (int i = 0; i < 100000; ++i) csv.row_values(i, i);
        csv.flush();
      },
      ConfigError);
}

}  // namespace
}  // namespace dfc::core
