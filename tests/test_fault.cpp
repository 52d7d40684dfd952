// Tests for the fault subsystem: FIFO-level injection primitives (bit flip,
// jam, drop, duplicate) and the sequence-checked checksum sidecar, the
// FaultInjector cycle hook on a full accelerator, byte-identical behaviour
// with injection disabled, fault events in the observability trace, and the
// campaign runner's classification + determinism across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/builder.hpp"
#include "core/harness.hpp"
#include "core/presets.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/sim_context.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "obs/trace.hpp"
#include "sst/window.hpp"

namespace dfc::fault {
namespace {

core::NetworkSpec usps_spec() { return core::make_usps_spec(3); }

std::vector<Tensor> test_images(const core::NetworkSpec& spec, std::size_t count,
                                std::uint64_t seed = 7) {
  Rng rng(seed);
  std::vector<Tensor> images;
  for (std::size_t i = 0; i < count; ++i) {
    Tensor t(spec.input_shape);
    for (float& v : t.flat()) v = rng.uniform(-1.0f, 1.0f);
    images.push_back(std::move(t));
  }
  return images;
}

// Restores DFCNN_SWEEP_THREADS on scope exit.
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

// --- FIFO-level primitives and the integrity sidecar ---------------------------

TEST(FifoFaultTest, JamBlocksBothSidesOfTheHandshake) {
  df::SimContext ctx;
  auto& f = ctx.add_fifo<int>("t", 4);
  f.push(1);
  f.commit();
  ASSERT_TRUE(f.can_pop());
  ASSERT_TRUE(f.can_push());
  f.set_fault_jammed(true);
  EXPECT_FALSE(f.can_pop());
  EXPECT_FALSE(f.can_push());
  f.set_fault_jammed(false);
  EXPECT_TRUE(f.can_pop());
  EXPECT_EQ(f.pop(), 1);
}

TEST(FifoFaultTest, ChecksumSidecarCatchesBitFlip) {
  df::SimContext ctx;
  auto& f = ctx.add_fifo<axis::Flit>("t", 4);
  f.enable_integrity_guard(nullptr, 1e6f);
  axis::Flit flit;
  flit.data = 1.0f;
  f.push(flit);
  f.commit();
  ASSERT_TRUE(f.fault_corrupt_payload(30));  // exponent bit: big change
  (void)f.pop();
  f.commit();
  EXPECT_EQ(f.guard_checksum_errors(), 1u);
}

TEST(FifoFaultTest, SequenceCheckCatchesDuplicate) {
  df::SimContext ctx;
  auto& f = ctx.add_fifo<int>("t", 8);
  f.enable_integrity_guard(nullptr, 0.0f);
  for (int i = 0; i < 3; ++i) {
    f.push(10 + i);
    f.commit();
  }
  ASSERT_TRUE(f.fault_duplicate_front());
  EXPECT_EQ(f.size(), 4u);
  // The bitwise-faithful copy passes (same payload, right pop position); the
  // displaced original lands one position late and fails the sequence check.
  EXPECT_EQ(f.pop(), 10);
  f.commit();
  EXPECT_EQ(f.guard_checksum_errors(), 0u);
  EXPECT_EQ(f.pop(), 10);
  f.commit();
  EXPECT_EQ(f.guard_checksum_errors(), 1u);
}

TEST(FifoFaultTest, SequenceCheckCatchesDrop) {
  df::SimContext ctx;
  auto& f = ctx.add_fifo<int>("t", 8);
  f.enable_integrity_guard(nullptr, 0.0f);
  for (int i = 0; i < 3; ++i) {
    f.push(10 + i);
    f.commit();
  }
  ASSERT_TRUE(f.fault_drop_front());
  EXPECT_EQ(f.size(), 2u);
  // The next element arrives one pop position early: sequence mismatch.
  EXPECT_EQ(f.pop(), 11);
  f.commit();
  EXPECT_EQ(f.guard_checksum_errors(), 1u);
}

TEST(FifoFaultTest, DuplicateRefusesWhenFull) {
  df::SimContext ctx;
  auto& f = ctx.add_fifo<int>("t", 2);
  f.push(1);
  f.commit();
  f.push(2);
  f.commit();
  EXPECT_FALSE(f.fault_duplicate_front());  // no physical slot for the copy
  EXPECT_EQ(f.size(), 2u);
}

TEST(FifoFaultTest, GuardIsPassiveOnCleanTraffic) {
  df::SimContext ctx;
  auto& f = ctx.add_fifo<axis::Flit>("t", 4);
  f.enable_integrity_guard(nullptr, 1e6f);
  for (int i = 0; i < 20; ++i) {
    axis::Flit flit;
    flit.data = static_cast<float>(i);
    flit.last = (i % 5 == 4);
    f.push(flit);
    f.commit();
    const axis::Flit out = f.pop();
    f.commit();
    EXPECT_EQ(out.data, static_cast<float>(i));
  }
  EXPECT_EQ(f.guard_checksum_errors(), 0u);
  EXPECT_EQ(f.guard_range_errors(), 0u);
}

// --- in-place push_slot()/take() against by-value push()/pop() -----------------

/// Window `i` of a 5-tap test stream.
sst::Window test_window(int i) {
  sst::Window w;
  w.count = 5;
  for (std::size_t t = 0; t < w.count; ++t) {
    w.taps[t] = 0.25f * static_cast<float>(i + static_cast<int>(t));
  }
  w.slot = static_cast<std::uint16_t>(i % 3);
  w.last_of_image = (i % 4 == 3);
  return w;
}

/// Fills a capacity-4 guarded Window FIFO with windows 0..2, by value or in
/// place (writing only the live taps and the fields the cores read).
void fill_guarded(df::Fifo<sst::Window>& f, bool in_place) {
  f.enable_integrity_guard(nullptr, 1e6f);
  for (int i = 0; i < 3; ++i) {
    const sst::Window v = test_window(i);
    if (in_place) {
      sst::Window& w = f.push_slot();
      w.count = v.count;
      std::copy_n(v.taps.begin(), v.count, w.taps.begin());
      w.slot = v.slot;
      w.last_of_image = v.last_of_image;
    } else {
      f.push(v);
    }
    f.commit();
  }
}

TEST(FifoInPlaceTest, InPlaceAndByValueStreamsGuardAlike) {
  // The same tokens through push(v) and through push_slot(): the sidecars
  // agree pop by pop on a clean stream and after a flip, a drop or a
  // duplicate.
  for (int fault = 0; fault < 4; ++fault) {  // none, flip, drop, duplicate
    df::Fifo<sst::Window> by_value("v", 4);
    df::Fifo<sst::Window> in_place("p", 4);
    fill_guarded(by_value, false);
    fill_guarded(in_place, true);
    for (df::Fifo<sst::Window>* f : {&by_value, &in_place}) {
      const bool landed = fault == 0   ? true
                          : fault == 1 ? f->fault_corrupt_payload(30)
                          : fault == 2 ? f->fault_drop_front()
                                       : f->fault_duplicate_front();
      ASSERT_TRUE(landed) << "fault " << fault;
    }
    ASSERT_EQ(by_value.size(), in_place.size());
    while (by_value.can_pop()) {
      ASSERT_TRUE(in_place.can_pop());
      EXPECT_EQ(sst::fault_payload_checksum(by_value.take()),
                sst::fault_payload_checksum(in_place.take()));
      by_value.commit();
      in_place.commit();
      EXPECT_EQ(in_place.guard_checksum_errors(), by_value.guard_checksum_errors())
          << "fault " << fault;
    }
    EXPECT_EQ(by_value.guard_checksum_errors(), fault == 0 ? 0u : 1u) << "fault " << fault;
  }
}

TEST(FifoInPlaceTest, DuplicateKeepsAnUncommittedInPlacePush) {
  df::SimContext ctx;
  auto& f = ctx.add_fifo<sst::Window>("t", 4);
  f.enable_integrity_guard(nullptr, 1e6f);
  f.push(test_window(0));
  f.commit();
  f.push_slot() = test_window(1);
  ASSERT_TRUE(f.fault_duplicate_front());
  f.commit();
  ASSERT_EQ(f.size(), 3u);
  // The copy, the original (one position late), then the intact push.
  EXPECT_EQ(f.take().taps[0], test_window(0).taps[0]);
  f.commit();
  EXPECT_EQ(f.guard_checksum_errors(), 0u);
  EXPECT_EQ(f.take().taps[0], test_window(0).taps[0]);
  f.commit();
  EXPECT_EQ(f.guard_checksum_errors(), 1u);
  const sst::Window& last = f.take();
  EXPECT_EQ(sst::fault_payload_checksum(last), sst::fault_payload_checksum(test_window(1)));
  EXPECT_EQ(last.slot, test_window(1).slot);
}

TEST(FifoInPlaceTest, CorruptionLandsOnAnUncommittedInPlacePush) {
  df::SimContext ctx;
  auto& f = ctx.add_fifo<sst::Window>("t", 4);
  f.enable_integrity_guard(nullptr, 1e6f);
  f.push_slot() = test_window(2);
  ASSERT_TRUE(f.fault_corrupt_payload(30));  // nothing committed: the pending slot
  f.commit();
  const sst::Window& w = f.take();
  EXPECT_NE(w.taps[0], test_window(2).taps[0]);
  // The sidecar holds the token as the producer wrote it, so the flip shows.
  EXPECT_EQ(f.guard_checksum_errors(), 1u);
}

// --- injector on a full accelerator --------------------------------------------

TEST(FaultInjectorTest, BitFlipOnBusyLinkIsDetected) {
  const core::NetworkSpec spec = usps_spec();
  const auto images = test_images(spec, 2);
  core::AcceleratorHarness harness(core::build_accelerator(spec));

  FaultPlan plan;
  FaultSpec fs;
  fs.kind = FaultKind::kBitFlip;
  fs.fifo = "dma.in";
  fs.cycle = 40;  // the input stream is busy this early
  fs.bit = 30;    // exponent bit: guaranteed numeric change
  plan.fifo_faults.push_back(fs);
  FaultInjector injector(std::move(plan));
  injector.attach(*harness.accelerator().ctx);

  (void)harness.run_batch(images, 100000);
  EXPECT_TRUE(injector.any_injection_landed());
  ASSERT_TRUE(injector.any_detection());
  EXPECT_EQ(injector.detections().front().what, "checksum");
  EXPECT_LT(injector.first_detection_cycle(), FaultInjector::kNever);
}

TEST(FaultInjectorTest, JamDelaysTheRunButPreservesOutputs) {
  const core::NetworkSpec spec = usps_spec();
  const auto images = test_images(spec, 2);

  core::AcceleratorHarness golden(core::build_accelerator(spec));
  const auto gr = golden.run_batch(images);

  core::AcceleratorHarness harness(core::build_accelerator(spec));
  FaultPlan plan;
  plan.integrity_guards = false;  // a jam corrupts timing, not payloads
  FaultSpec fs;
  fs.kind = FaultKind::kJam;
  fs.fifo = "dma.in";
  fs.cycle = 40;
  fs.jam_cycles = 200;
  plan.fifo_faults.push_back(fs);
  FaultInjector injector(std::move(plan));
  injector.attach(*harness.accelerator().ctx);

  const auto fr = harness.run_batch(images, gr.total_cycles() + 1000);
  EXPECT_TRUE(injector.any_injection_landed());
  EXPECT_EQ(fr.outputs, gr.outputs);
  EXPECT_GT(fr.total_cycles(), gr.total_cycles());
  EXPECT_LE(fr.total_cycles(), gr.total_cycles() + 200);
}

TEST(FaultInjectorTest, DetachReleasesJamsAndGuards) {
  const core::NetworkSpec spec = usps_spec();
  core::Accelerator acc = core::build_accelerator(spec);
  {
    FaultPlan plan;
    FaultSpec fs;
    fs.kind = FaultKind::kJam;
    fs.fifo = "dma.in";
    fs.cycle = 0;
    fs.jam_cycles = 1000000;
    plan.fifo_faults.push_back(fs);
    FaultInjector injector(std::move(plan));
    injector.attach(*acc.ctx);
    acc.ctx->step();  // fault fires at cycle 0
    EXPECT_TRUE(acc.ctx->find_fifo("dma.in")->fault_jammed());
  }  // destructor detaches
  EXPECT_FALSE(acc.ctx->find_fifo("dma.in")->fault_jammed());
  EXPECT_FALSE(acc.ctx->find_fifo("dma.in")->integrity_guard_enabled());
  EXPECT_EQ(acc.ctx->cycle_hook(), nullptr);
}

TEST(FaultInjectorTest, NoInjectorMeansByteIdenticalRuns) {
  const core::NetworkSpec spec = usps_spec();
  const auto images = test_images(spec, 3);

  core::AcceleratorHarness a(core::build_accelerator(spec));
  const auto ra = a.run_batch(images);

  // Guards armed but no faults: detection is host-side observation only, so
  // cycles and outputs must not move either.
  core::AcceleratorHarness b(core::build_accelerator(spec));
  FaultInjector injector{FaultPlan{}};
  injector.attach(*b.accelerator().ctx);
  const auto rb = b.run_batch(images);

  EXPECT_EQ(ra.total_cycles(), rb.total_cycles());
  EXPECT_EQ(ra.outputs, rb.outputs);
  EXPECT_FALSE(injector.any_detection());
}

TEST(FaultInjectorTest, FaultEventsAppearInTrace) {
  const core::NetworkSpec spec = usps_spec();
  const auto images = test_images(spec, 2);

  obs::TraceSink sink;
  core::AcceleratorHarness harness(core::build_accelerator(spec));
  harness.accelerator().ctx->attach_trace(&sink);

  FaultPlan plan;
  FaultSpec fs;
  fs.kind = FaultKind::kBitFlip;
  fs.fifo = "dma.in";
  fs.cycle = 40;
  fs.bit = 30;
  plan.fifo_faults.push_back(fs);
  FaultInjector injector(std::move(plan));
  injector.attach(*harness.accelerator().ctx);

  (void)harness.run_batch(images, 100000);
  bool saw_inject = false;
  bool saw_detect = false;
  for (const obs::TraceEvent& ev : sink.events()) {
    if (ev.kind == obs::EventKind::kFaultInject) {
      saw_inject = true;
      EXPECT_EQ(ev.value, df::kFaultTraceBitFlip);
    }
    if (ev.kind == obs::EventKind::kFaultDetect) saw_detect = true;
  }
  EXPECT_TRUE(saw_inject);
  EXPECT_TRUE(saw_detect);
}

// --- campaign runner -----------------------------------------------------------

TEST(CampaignTest, HangBudgetCoversTheFaultFreeRun) {
  const core::NetworkSpec spec = usps_spec();
  const auto images = test_images(spec, 4);
  core::AcceleratorHarness harness(core::build_accelerator(spec));
  const auto r = harness.run_batch(images);
  EXPECT_GT(hang_budget_cycles(spec, 4), r.total_cycles());
}

TEST(CampaignTest, ZeroSdcWithDetectionOnUsps) {
  CampaignConfig config;
  config.trials = 24;
  config.seed = 5;
  config.batch = 4;
  config.detection = true;
  const CampaignResult result = run_campaign(usps_spec(), config);

  EXPECT_EQ(result.sdc, 0u) << result.csv();
  EXPECT_EQ(result.hang, 0u) << result.csv();
  EXPECT_EQ(result.masked + result.detected_recovered, config.trials);
  EXPECT_DOUBLE_EQ(result.sdc_rate(), 0.0);
  // Bounded recovery: a detected trial never burns more than the watchdog
  // budget before the clean re-run takes over.
  for (const TrialResult& tr : result.trials) {
    if (tr.outcome == TrialOutcome::kDetectedRecovered) {
      EXPECT_GT(tr.recovery_latency_cycles, 0u);
      EXPECT_LE(tr.recovery_latency_cycles, result.hang_budget);
    }
  }
}

TEST(CampaignTest, DeterministicAcrossThreadCounts) {
  CampaignConfig config;
  config.trials = 12;
  config.seed = 3;
  config.batch = 3;
  std::string csv1, csv4;
  {
    ScopedSweepThreads env("1");
    csv1 = run_campaign(usps_spec(), config).csv();
  }
  {
    ScopedSweepThreads env("4");
    csv4 = run_campaign(usps_spec(), config).csv();
  }
  EXPECT_EQ(csv1, csv4);
}

TEST(CampaignTest, SeedChangesTheFaultMix) {
  CampaignConfig config;
  config.trials = 8;
  config.batch = 2;
  config.seed = 1;
  const std::string a = run_campaign(usps_spec(), config).csv();
  config.seed = 2;
  const std::string b = run_campaign(usps_spec(), config).csv();
  EXPECT_NE(a, b);
}

TEST(CampaignTest, ClassificationLineAndCsvAreConsistent) {
  CampaignConfig config;
  config.trials = 8;
  config.batch = 2;
  const CampaignResult result = run_campaign(usps_spec(), config);
  EXPECT_EQ(result.masked + result.detected_recovered + result.sdc + result.hang,
            config.trials);
  const std::string line = result.classification_line();
  EXPECT_NE(line.find("masked=" + std::to_string(result.masked)), std::string::npos);
  EXPECT_NE(line.find("sdc=" + std::to_string(result.sdc)), std::string::npos);
  // Header + one row per trial.
  std::size_t rows = 0;
  for (const char c : result.csv()) rows += (c == '\n') ? 1 : 0;
  EXPECT_EQ(rows, config.trials + 1);
}

// FNV-1a 64 pins of `dfcnn faults <design> --seed S --trials 16`'s CSV,
// computed before window tokens were built and read in their FIFO slots.
// Which detector fires first depends on the guard checking a token before
// its consumer's own assertions run.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

CampaignResult pinned_campaign(const core::NetworkSpec& spec, std::uint64_t seed) {
  CampaignConfig config;
  config.trials = 16;
  config.seed = seed;
  return run_campaign(spec, config);
}

TEST(FaultCampaignPinTest, CifarSeed3) {
  const CampaignResult r = pinned_campaign(core::make_cifar_preset().compile_spec(), 3);
  // Trial 0 drops a window on the conv core's input; the sequence check
  // must see it before the core's slot assertion does.
  ASSERT_FALSE(r.trials.empty());
  EXPECT_EQ(r.trials[0].fault.kind, FaultKind::kDropFlit);
  EXPECT_EQ(r.trials[0].fault.fifo, "L0.win0");
  EXPECT_EQ(r.trials[0].detector, "checksum");
  const std::string csv = r.csv();
  EXPECT_EQ(fnv1a(csv), 0x45080f839afe043eULL) << std::hex << "0x" << fnv1a(csv);
}

TEST(FaultCampaignPinTest, UspsSeed1) {
  const std::string csv = pinned_campaign(core::make_usps_preset().compile_spec(), 1).csv();
  EXPECT_EQ(fnv1a(csv), 0xcb1a0750e2cfce73ULL) << std::hex << "0x" << fnv1a(csv);
}

TEST(FaultCampaignPinTest, UspsTwoBoards) {
  // The same campaign on the credit-link build of the {0,0,1,1} cut: sites
  // span both boards, and the detectors still catch every landed fault.
  CampaignConfig config;
  config.trials = 16;
  config.seed = 1;
  config.cut = {0, 0, 1, 1};
  config.build.link = core::LinkModel{40, 4};
  const CampaignResult r = run_campaign(core::make_usps_preset().compile_spec(), config);
  EXPECT_EQ(r.sdc, 0u) << r.classification_line();
  EXPECT_EQ(r.hang, 0u) << r.classification_line();
  const std::string csv = r.csv();
  EXPECT_EQ(fnv1a(csv), 0xf0f3220891b486d8ULL) << std::hex << "0x" << fnv1a(csv);
}

}  // namespace
}  // namespace dfc::fault
