// Lockstep equivalence suite for the compiled-schedule fast path
// (core/schedule.hpp + core/functional_model.hpp): replaying a design's
// static schedule must be indistinguishable from stepping the cycle engine —
// logits bit-identical, inject/completion cycles equal — on every example
// design, with the shared DMA bus on and off, at batch sizes inside and far
// beyond the calibration prefix, on one board and on 2-4-board cuts. Also pins
// the automatic fallback to cycle-level stepping whenever any board is
// watched or perturbed, the structured timeout emulation, the process-wide
// schedule cache, and byte-determinism across DFCNN_SWEEP_THREADS.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/builder.hpp"
#include "core/functional_model.hpp"
#include "core/harness.hpp"
#include "core/presets.hpp"
#include "core/schedule.hpp"
#include "dataflow/sim_context.hpp"
#include "multifpga/exec.hpp"
#include "multifpga/partition.hpp"
#include "obs/trace.hpp"
#include "report/experiments.hpp"

namespace dfc::core {
namespace {

BuildOptions compiled_options(bool shared_bus = true) {
  BuildOptions o;
  o.dma_shared_bus = shared_bus;
  o.execution_mode = ExecutionMode::kCompiledSchedule;
  return o;
}

BuildOptions cycle_options(bool shared_bus = true) {
  BuildOptions o = compiled_options(shared_bus);
  o.execution_mode = ExecutionMode::kCycleAccurate;
  return o;
}

// Sets DFCNN_SWEEP_THREADS for one scope and restores it on exit.
class ScopedSweepThreads {
 public:
  explicit ScopedSweepThreads(const char* value) {
    if (const char* old = std::getenv("DFCNN_SWEEP_THREADS")) old_ = old;
    ::setenv("DFCNN_SWEEP_THREADS", value, 1);
  }
  ~ScopedSweepThreads() {
    if (old_.empty()) {
      ::unsetenv("DFCNN_SWEEP_THREADS");
    } else {
      ::setenv("DFCNN_SWEEP_THREADS", old_.c_str(), 1);
    }
  }

 private:
  std::string old_;
};

void expect_identical(const BatchResult& cycle, const BatchResult& compiled,
                      const std::string& what) {
  EXPECT_EQ(cycle.status, compiled.status) << what;
  EXPECT_EQ(cycle.inject_cycles, compiled.inject_cycles) << what;
  EXPECT_EQ(cycle.completion_cycles, compiled.completion_cycles) << what;
  EXPECT_EQ(cycle.end_cycle, compiled.end_cycle) << what;
  // operator== on vector<vector<float>> is bitwise for these finite values:
  // the functional model must reproduce the cores' exact evaluation order.
  EXPECT_EQ(cycle.outputs, compiled.outputs) << what;
}

// --- equivalence across designs, bus modes, and batch sizes --------------------

TEST(CompiledScheduleTest, MatchesCycleEngineOnAllExampleDesigns) {
  const NetworkSpec specs[] = {make_usps_spec(), make_cifar_spec(),
                               make_alexnet_mini_spec()};
  for (const NetworkSpec& spec : specs) {
    for (const bool shared_bus : {true, false}) {
      AcceleratorHarness cycle(build_accelerator(spec, cycle_options(shared_bus)));
      AcceleratorHarness compiled(build_accelerator(spec, compiled_options(shared_bus)));
      ASSERT_TRUE(compiled.compiled_mode_legal());
      for (const std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
        const auto images = dfc::report::random_images(spec, batch);
        expect_identical(cycle.run_batch(images), compiled.run_batch(images),
                         spec.name + " bus=" + std::to_string(shared_bus) +
                             " batch=" + std::to_string(batch));
      }
    }
  }
}

TEST(CompiledScheduleTest, MatchesCycleEngineBeyondCalibrationPrefix) {
  // Batch 60 is far past the calibrated prefix (16 images for the 4-layer
  // USPS design), so most completions come from steady-interval
  // extrapolation, not lookup.
  const NetworkSpec spec = make_usps_spec();
  const auto images = dfc::report::random_images(spec, 60);
  AcceleratorHarness cycle(build_accelerator(spec, cycle_options()));
  AcceleratorHarness compiled(build_accelerator(spec, compiled_options()));
  expect_identical(cycle.run_batch(images), compiled.run_batch(images), "usps batch=60");
}

TEST(CompiledScheduleTest, SequentialModeMatchesCycleEngine) {
  for (const NetworkSpec& spec : {make_usps_spec(), make_cifar_spec()}) {
    const auto images = dfc::report::random_images(spec, 4);
    AcceleratorHarness cycle(build_accelerator(spec, cycle_options()));
    AcceleratorHarness compiled(build_accelerator(spec, compiled_options()));
    expect_identical(cycle.run_sequential(images), compiled.run_sequential(images),
                     spec.name + " sequential");
  }
}

/// Every 2..4-board exact cut of `spec`: compiled inject/completion cycles
/// equal the cycle engine's at a batch one past the calibration prefix, in
/// batch and sequential mode, and the logits equal one board's.
void expect_multi_board_engines_agree(const NetworkSpec& spec) {
  AcceleratorHarness one(build_accelerator(spec));
  std::map<std::size_t, std::vector<std::vector<float>>> one_board;  // by batch size
  for (std::size_t boards = 2; boards <= 4; ++boards) {
    const auto cut = dfc::mfpga::partition_network_exact(spec, boards, {}).layer_device;
    for (const ScheduleMode mode : {ScheduleMode::kBatch, ScheduleMode::kSequential}) {
      const bool sequential = mode == ScheduleMode::kSequential;
      const std::size_t batch = shared_schedule(spec, compiled_options(), mode, cut)
                                    ->calibration_images() + 1;
      const auto images = dfc::report::random_images(spec, batch);
      dfc::mfpga::MultiFpgaHarness cycle(dfc::mfpga::build_multi_fpga(spec, cut, cycle_options()));
      dfc::mfpga::MultiFpgaHarness compiled(
          dfc::mfpga::build_multi_fpga(spec, cut, compiled_options()));
      ASSERT_TRUE(compiled.compiled_mode_legal());
      const BatchResult rc = sequential ? cycle.run_sequential(images) : cycle.run_batch(images);
      const BatchResult rf =
          sequential ? compiled.run_sequential(images) : compiled.run_batch(images);
      const std::string what = spec.name + " boards=" + std::to_string(boards) +
                               (sequential ? " sequential" : " batch") +
                               "=" + std::to_string(batch);
      ASSERT_TRUE(rc.ok()) << what << ": " << rc.error;
      expect_identical(rc, rf, what);
      auto& logits = one_board[batch];
      if (logits.empty()) logits = one.run_batch(images).outputs;
      EXPECT_EQ(rf.outputs, logits) << what;
    }
  }
}

TEST(CompiledScheduleTest, MultiBoardUspsMatchesCycleEngine) {
  expect_multi_board_engines_agree(make_usps_spec());
}

TEST(CompiledScheduleTest, MultiBoardCifarMatchesCycleEngine) {
  expect_multi_board_engines_agree(make_cifar_spec());
}

TEST(CompiledScheduleTest, MultiBoardAlexnetMiniMatchesCycleEngine) {
  expect_multi_board_engines_agree(make_alexnet_mini_spec());
}

TEST(CompiledScheduleTest, RepeatedRunsAreDeterministic) {
  const NetworkSpec spec = make_usps_spec();
  const auto images = dfc::report::random_images(spec, 6);
  AcceleratorHarness compiled(build_accelerator(spec, compiled_options()));
  const BatchResult r1 = compiled.run_batch(images);
  const BatchResult r2 = compiled.run_batch(images);
  expect_identical(r1, r2, "repeat");
}

// --- functional model ----------------------------------------------------------

TEST(FunctionalModelTest, MatchesSinkOutputsBitExactly) {
  for (const NetworkSpec& spec : {make_usps_spec(), make_cifar_spec()}) {
    const auto images = dfc::report::random_images(spec, 3);
    AcceleratorHarness cycle(build_accelerator(spec));
    const BatchResult r = cycle.run_batch(images);
    const FunctionalModel model(spec);
    for (std::size_t i = 0; i < images.size(); ++i) {
      EXPECT_EQ(model.infer(images[i]), r.outputs[i]) << spec.name << " image " << i;
    }
  }
}

// FNV-1a 64 over the raw bytes of every logit, in image order.
std::uint64_t logits_hash(const std::vector<std::vector<float>>& outputs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::vector<float>& logits : outputs) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(logits.data());
    for (std::size_t i = 0; i < logits.size() * sizeof(float); ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(FunctionalModelTest, LogitsMatchPinnedHashes) {
  // Both engines evaluate through the same MAC kernels, so comparing them
  // with each other cannot catch a kernel that drifts. These pins are the
  // logits of the scalar evaluation order: one tree_reduce per output FM
  // and gather beat, and one scalar accumulator per FCN lane.
  const struct {
    NetworkSpec spec;
    std::uint64_t hash;
  } pins[] = {{make_usps_spec(), 0x4fd31de42e287396ULL},
              {make_cifar_spec(), 0x07dc7a33a0c49dcdULL},
              {make_alexnet_mini_spec(), 0xe821523696e721c1ULL}};
  for (const auto& pin : pins) {
    const auto images = dfc::report::random_images(pin.spec, 4);
    AcceleratorHarness cycle(build_accelerator(pin.spec));
    EXPECT_EQ(logits_hash(cycle.run_batch(images).outputs), pin.hash)
        << pin.spec.name << " cycle engine";
    const FunctionalModel model(pin.spec);
    std::vector<std::vector<float>> logits;
    for (const Tensor& image : images) logits.push_back(model.infer(image));
    EXPECT_EQ(logits_hash(logits), pin.hash) << pin.spec.name << " functional model";
  }
}

TEST(FunctionalModelTest, RejectsWrongInputShape) {
  const NetworkSpec spec = make_usps_spec();
  const FunctionalModel model(spec);
  EXPECT_THROW(model.infer(Tensor(Shape3{3, 2, 2})), ConfigError);
}

bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(FunctionalModelTest, InferBatchMatchesPerImageInfer) {
  // One batch call against infer() on each image in turn: fresh images,
  // repeats within the batch, and hits left in the memo by an earlier batch,
  // with the misses run inline and fanned out over four workers.
  for (const NetworkSpec& spec : {make_usps_spec(), make_cifar_spec()}) {
    const auto pool = dfc::report::random_images(spec, 6, 11);
    const std::vector<Tensor> earlier{pool[0], pool[1]};
    const std::vector<Tensor> batch{pool[2], pool[0], pool[3], pool[2], pool[4],
                                    pool[1], pool[3], pool[5], pool[4]};
    const FunctionalModel serial(spec);
    for (const Tensor& image : earlier) serial.infer(image);
    std::vector<std::vector<float>> expected;
    for (const Tensor& image : batch) expected.push_back(serial.infer(image));

    for (const char* threads : {"1", "4"}) {
      ScopedSweepThreads scoped(threads);
      const std::string what = spec.name + " on " + threads + " thread(s)";
      const FunctionalModel model(spec);
      model.infer_batch(earlier);
      const std::vector<std::vector<float>> got = model.infer_batch(batch);
      ASSERT_EQ(got.size(), batch.size()) << what;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_TRUE(bit_identical(got[i], expected[i])) << what << ", image " << i;
      }
      // Six distinct images, none of them computed twice.
      EXPECT_EQ(model.memo_size(), serial.memo_size()) << what;
      EXPECT_EQ(model.memo_size(), pool.size()) << what;
    }
  }
}

// --- fallback legality ---------------------------------------------------------

class NullHook : public dfc::df::CycleHook {
 public:
  void on_cycle_start(std::uint64_t) override {}
};

// A watched compiled-mode build: the cycle engine runs, the result names
// `guard` as the reason, and it equals the cycle-accurate build's result.
void expect_fallback(Harness& h, const std::vector<Tensor>& images, CycleGuard guard,
                     const BatchResult& expected, const std::string& what) {
  EXPECT_FALSE(h.compiled_mode_legal()) << what;
  EXPECT_STREQ(cycle_guard_name(h.cycle_engine_guard()), cycle_guard_name(guard)) << what;
  const BatchResult r = h.run_batch(images);
  EXPECT_TRUE(r.engine == ExecutionMode::kCycleAccurate) << what;
  EXPECT_STREQ(cycle_guard_name(r.fallback), cycle_guard_name(guard)) << what;
  expect_identical(expected, r, what);
}

// An unwatched compiled-mode build replays the schedule and names no guard.
void expect_compiled(Harness& h, const std::vector<Tensor>& images, const BatchResult& expected,
                     const std::string& what) {
  EXPECT_TRUE(h.compiled_mode_legal()) << what;
  const BatchResult r = h.run_batch(images);
  EXPECT_TRUE(r.engine == ExecutionMode::kCompiledSchedule) << what;
  EXPECT_STREQ(cycle_guard_name(r.fallback), "none") << what;
  expect_identical(expected, r, what);
}

TEST(CompiledScheduleTest, WatchedContextsFallBackToCycleEngine) {
  const NetworkSpec spec = make_usps_spec();
  const auto images = dfc::report::random_images(spec, 3);
  AcceleratorHarness reference(build_accelerator(spec, cycle_options()));
  const BatchResult expected = reference.run_batch(images);
  // A cycle-accurate build never falls back, so it names no guard.
  EXPECT_TRUE(expected.engine == ExecutionMode::kCycleAccurate);
  EXPECT_STREQ(cycle_guard_name(expected.fallback), "none");

  AcceleratorHarness h(build_accelerator(spec, compiled_options()));
  dfc::df::SimContext& ctx = *h.accelerator().ctx;
  expect_compiled(h, images, expected, "unwatched");

  {  // cycle hook (fault injection)
    NullHook hook;
    ctx.attach_cycle_hook(&hook);
    expect_fallback(h, images, CycleGuard::kCycleHook, expected, "hooked");
    ctx.attach_cycle_hook(nullptr);
  }
  {  // trace sink: events must actually be recorded, proving the cycle
     // engine ran.
    dfc::obs::TraceSink sink;
    ctx.attach_trace(&sink);
    expect_fallback(h, images, CycleGuard::kObservation, expected, "traced");
    EXPECT_GT(sink.events().size(), 0u);
    ctx.attach_trace(nullptr);
  }
  {  // stall accounting
    ctx.set_stall_accounting(true);
    expect_fallback(h, images, CycleGuard::kObservation, expected, "stall-accounted");
    ctx.set_stall_accounting(false);
  }
  {  // paranoid lockstep checking
    ctx.set_paranoid(true);
    expect_fallback(h, images, CycleGuard::kParanoid, expected, "paranoid");
    ctx.set_paranoid(false);
  }
  {  // FIFO integrity guards
    ctx.enable_integrity_guards(nullptr, 0.0f);
    expect_fallback(h, images, CycleGuard::kIntegrityGuards, expected, "guarded");
    ctx.disable_integrity_guards();
  }
  {  // DMA sink stream guard
    h.accelerator().sink->set_stream_guard(true, 1e9f);
    expect_fallback(h, images, CycleGuard::kStreamGuard, expected, "stream-guarded");
    h.accelerator().sink->set_stream_guard(false);
  }
  {  // two guards at once: the first in CycleGuard order is named
    ctx.set_paranoid(true);
    h.accelerator().sink->set_stream_guard(true, 1e9f);
    expect_fallback(h, images, CycleGuard::kParanoid, expected, "paranoid and stream-guarded");
    h.accelerator().sink->set_stream_guard(false);
    ctx.set_paranoid(false);
  }
  expect_compiled(h, images, expected, "legal again");
}

TEST(CompiledScheduleTest, WatchedBoardsFallBackToCycleEngine) {
  // The same guards on a 2-board design: whatever watches any one board, or
  // the links between them, forces the cycle engine there.
  const NetworkSpec spec = make_usps_spec();
  const std::vector<std::size_t> cut{0, 0, 1, 1};
  const auto images = dfc::report::random_images(spec, 3);
  dfc::mfpga::MultiFpgaHarness reference(dfc::mfpga::build_multi_fpga(spec, cut, cycle_options()));
  const BatchResult expected = reference.run_batch(images);
  ASSERT_TRUE(expected.ok()) << expected.error;

  dfc::mfpga::MultiFpgaHarness h(dfc::mfpga::build_multi_fpga(spec, cut, compiled_options()));
  expect_compiled(h, images, expected, "compiled");
  for (std::size_t board = 0; board < h.device_count(); ++board) {
    dfc::df::SimContext& ctx = h.device_context(board);
    const std::string on = " on board " + std::to_string(board);
    {
      NullHook hook;
      ctx.attach_cycle_hook(&hook);
      expect_fallback(h, images, CycleGuard::kCycleHook, expected, "hooked" + on);
      ctx.attach_cycle_hook(nullptr);
    }
    {
      dfc::obs::TraceSink sink;
      ctx.attach_trace(&sink);
      expect_fallback(h, images, CycleGuard::kObservation, expected, "traced" + on);
      EXPECT_GT(sink.events().size(), 0u);
      ctx.attach_trace(nullptr);
    }
    {
      ctx.enable_integrity_guards(nullptr, 0.0f);
      expect_fallback(h, images, CycleGuard::kIntegrityGuards, expected, "guarded" + on);
      ctx.disable_integrity_guards();
    }
  }
  {
    h.set_link_attribution(true);
    expect_fallback(h, images, CycleGuard::kLinkAttribution, expected, "link-attributed");
    EXPECT_GT(h.link_observed_cycles(), 0u);
    h.set_link_attribution(false);
  }
  {
    h.accelerator().sink->set_stream_guard(true, 1e9f);
    expect_fallback(h, images, CycleGuard::kStreamGuard, expected, "stream-guarded");
    h.accelerator().sink->set_stream_guard(false);
  }
  expect_compiled(h, images, expected, "legal again");
}

// --- structured timeout emulation ----------------------------------------------

TEST(CompiledScheduleTest, TimeoutMatchesCycleEngine) {
  const NetworkSpec spec = make_usps_spec();
  const auto images = dfc::report::random_images(spec, 8);
  AcceleratorHarness cycle(build_accelerator(spec, cycle_options()));
  AcceleratorHarness compiled(build_accelerator(spec, compiled_options()));

  // A budget that lands mid-batch: some images complete, the rest do not.
  const std::uint64_t full = cycle.run_batch(images).total_cycles();
  const std::uint64_t budget = full / 2;
  const BatchResult rc = cycle.run_batch(images, budget);
  const BatchResult rf = compiled.run_batch(images, budget);
  ASSERT_EQ(rc.status, RunStatus::kTimeout);
  EXPECT_FALSE(rc.ok());
  EXPECT_GT(rc.completed(), 0u);
  EXPECT_LT(rc.completed(), images.size());
  EXPECT_EQ(rc.requested, images.size());
  expect_identical(rc, rf, "timeout");
  EXPECT_EQ(rf.end_cycle, budget);  // the abort cycle, not a completion
}

TEST(CompiledScheduleTest, ZeroCompletionTimeoutIsReportedNotFatal) {
  // Satellite regression: a run that times out before the first completion
  // used to DFC_CHECK-abort in collect(); it must now return a classifiable
  // partial result on both engines.
  const NetworkSpec spec = make_usps_spec();
  const auto images = dfc::report::random_images(spec, 2);
  for (const ExecutionMode mode :
       {ExecutionMode::kCycleAccurate, ExecutionMode::kCompiledSchedule}) {
    BuildOptions o;
    o.execution_mode = mode;
    AcceleratorHarness h(build_accelerator(spec, o));
    const BatchResult r = h.run_batch(images, 50);
    EXPECT_EQ(r.status, RunStatus::kTimeout);
    EXPECT_EQ(r.completed(), 0u);
    EXPECT_EQ(r.requested, 2u);
    EXPECT_EQ(r.end_cycle, 50u);
    EXPECT_TRUE(r.outputs.empty());
    EXPECT_FALSE(r.error.empty());
  }
  EXPECT_STREQ(run_status_name(RunStatus::kTimeout), "timeout");
  EXPECT_STREQ(run_status_name(RunStatus::kOk), "ok");
  EXPECT_STREQ(run_status_name(RunStatus::kDeadlock), "deadlock");
}

// --- schedule cache ------------------------------------------------------------

TEST(CompiledScheduleTest, ScheduleIsCachedAcrossHarnesses) {
  clear_schedule_cache();
  const NetworkSpec spec = make_usps_spec();
  const auto images = dfc::report::random_images(spec, 2);
  AcceleratorHarness a(build_accelerator(spec, compiled_options()));
  AcceleratorHarness b(build_accelerator(spec, compiled_options()));
  a.run_batch(images);
  EXPECT_EQ(schedule_cache_size(), 1u);
  b.run_batch(images);
  EXPECT_EQ(schedule_cache_size(), 1u);  // second harness hit the cache
  b.run_sequential(images);
  EXPECT_EQ(schedule_cache_size(), 2u);  // sequential mode is its own entry
}

TEST(CompiledScheduleTest, CacheKeyIgnoresWeightsButNotTiming) {
  // Timing does not depend on weights — two seeds share one schedule — but
  // it does depend on the DMA bus mode, the board cut and the credit window.
  const auto key = [](const NetworkSpec& spec, const BuildOptions& options,
                      const std::vector<std::size_t>& cut = {}, int credits = 0) {
    return schedule_cache_key(spec, options, ScheduleMode::kBatch, cut, credits);
  };
  const std::string k1 = key(make_usps_spec(1), compiled_options());
  EXPECT_EQ(k1, key(make_usps_spec(99), compiled_options()));
  EXPECT_NE(k1, key(make_usps_spec(1), compiled_options(false)));
  const std::string two = key(make_usps_spec(1), compiled_options(), {0, 0, 1, 1});
  EXPECT_EQ(two, key(make_usps_spec(99), compiled_options(), {0, 0, 1, 1}));
  EXPECT_NE(two, k1);
  EXPECT_NE(two, key(make_usps_spec(1), compiled_options(), {0, 1, 1, 1}));
  EXPECT_NE(two, key(make_usps_spec(1), compiled_options(), {0, 0, 1, 1}, 1));
}

// --- steady interval of the schedule itself ------------------------------------

TEST(CompiledScheduleTest, SteadyIntervalMatchesKnownUspsRate) {
  const CompiledSchedule sched =
      compile_schedule(make_usps_spec(), compiled_options(), ScheduleMode::kBatch);
  // The USPS design's steady interval is 266 cycles with the shared DMA bus
  // (DESIGN.md §5); the schedule must reproduce it exactly.
  EXPECT_DOUBLE_EQ(sched.steady_interval(), 266.0);
  EXPECT_GE(sched.calibration_images(), 3 * sched.period_images());
}

// --- byte-determinism across sweep thread counts -------------------------------

TEST(CompiledScheduleTest, SweepIsByteIdenticalAcrossThreadCounts) {
  const NetworkSpec spec = make_usps_spec();
  const std::vector<std::size_t> batches{1, 3, 7, 20};
  auto run = [&](const char* threads) {
    ScopedSweepThreads scoped(threads);
    clear_schedule_cache();  // every run pays (one) compile, hit or miss
    return dfc::report::batch_sweep(spec, batches, 7, compiled_options());
  };
  const auto one = run("1");
  const auto four = run("4");
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].batch, four[i].batch);
    EXPECT_EQ(one[i].total_cycles, four[i].total_cycles);
    EXPECT_EQ(one[i].mean_us_per_image, four[i].mean_us_per_image);
    EXPECT_EQ(one[i].p50_latency_us, four[i].p50_latency_us);
    EXPECT_EQ(one[i].p99_latency_us, four[i].p99_latency_us);
  }
}

}  // namespace
}  // namespace dfc::core
