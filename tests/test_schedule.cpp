// Lockstep equivalence suite for the compiled-schedule fast path
// (core/schedule.hpp + core/functional_model.hpp): replaying a design's
// static schedule must be indistinguishable from stepping the cycle engine —
// logits bit-identical, inject/completion cycles equal — on every example
// design, with the shared DMA bus on and off, at batch sizes inside and far
// beyond the calibration prefix. Also pins the automatic fallback to
// cycle-level stepping whenever the context is watched or perturbed, the
// structured timeout emulation, the process-wide schedule cache, and
// byte-determinism across DFCNN_SWEEP_THREADS.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/builder.hpp"
#include "core/functional_model.hpp"
#include "core/harness.hpp"
#include "core/presets.hpp"
#include "core/schedule.hpp"
#include "dataflow/sim_context.hpp"
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

// --- fallback legality ---------------------------------------------------------

class NullHook : public dfc::df::CycleHook {
 public:
  void on_cycle_start(std::uint64_t) override {}
};

TEST(CompiledScheduleTest, WatchedContextsFallBackToCycleEngine) {
  const NetworkSpec spec = make_usps_spec();
  const auto images = dfc::report::random_images(spec, 3);
  AcceleratorHarness reference(build_accelerator(spec, cycle_options()));
  const BatchResult expected = reference.run_batch(images);

  AcceleratorHarness h(build_accelerator(spec, compiled_options()));
  dfc::df::SimContext& ctx = *h.accelerator().ctx;
  ASSERT_TRUE(h.compiled_mode_legal());

  {  // cycle hook (fault injection)
    NullHook hook;
    ctx.attach_cycle_hook(&hook);
    EXPECT_FALSE(h.compiled_mode_legal());
    expect_identical(expected, h.run_batch(images), "hooked");
    ctx.attach_cycle_hook(nullptr);
  }
  {  // trace sink: events must actually be recorded, proving the cycle
     // engine ran.
    dfc::obs::TraceSink sink;
    ctx.attach_trace(&sink);
    EXPECT_FALSE(h.compiled_mode_legal());
    expect_identical(expected, h.run_batch(images), "traced");
    EXPECT_GT(sink.events().size(), 0u);
    ctx.attach_trace(nullptr);
  }
  {  // stall accounting
    ctx.set_stall_accounting(true);
    EXPECT_FALSE(h.compiled_mode_legal());
    expect_identical(expected, h.run_batch(images), "stall-accounted");
    ctx.set_stall_accounting(false);
  }
  {  // paranoid lockstep checking
    ctx.set_paranoid(true);
    EXPECT_FALSE(h.compiled_mode_legal());
    expect_identical(expected, h.run_batch(images), "paranoid");
    ctx.set_paranoid(false);
  }
  {  // FIFO integrity guards
    ctx.enable_integrity_guards(nullptr, 0.0f);
    EXPECT_FALSE(h.compiled_mode_legal());
    expect_identical(expected, h.run_batch(images), "guarded");
    ctx.disable_integrity_guards();
  }
  {  // DMA sink stream guard
    h.accelerator().sink->set_stream_guard(true, 1e9f);
    EXPECT_FALSE(h.compiled_mode_legal());
    expect_identical(expected, h.run_batch(images), "stream-guarded");
    h.accelerator().sink->set_stream_guard(false);
  }
  EXPECT_TRUE(h.compiled_mode_legal());
  expect_identical(expected, h.run_batch(images), "legal again");
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
  // it does depend on the DMA bus mode.
  const std::string k1 = schedule_cache_key(make_usps_spec(1), compiled_options(), //
                                            ScheduleMode::kBatch);
  const std::string k2 = schedule_cache_key(make_usps_spec(99), compiled_options(),
                                            ScheduleMode::kBatch);
  const std::string k3 = schedule_cache_key(make_usps_spec(1), compiled_options(false),
                                            ScheduleMode::kBatch);
  EXPECT_EQ(k1, k2);
  EXPECT_NE(k1, k3);
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
