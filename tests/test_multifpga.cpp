// Tests for the multi-FPGA substrate: the inter-board link channel, the
// credit-based cross-context interlink, the partitioner, the multi-device
// timing model, and functional equivalence of partitioned accelerators —
// both the single-context LinkChannel build and the true multi-context
// executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/harness.hpp"
#include "core/interlink.hpp"
#include "core/presets.hpp"
#include "dataflow/endpoints.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "multifpga/exec.hpp"
#include "multifpga/partition.hpp"
#include "report/experiments.hpp"

namespace dfc::mfpga {
namespace {

using dfc::axis::Flit;
using dfc::core::InterLinkModel;
using dfc::core::InterLinkRx;
using dfc::core::InterLinkTx;
using dfc::core::InterLinkWire;
using dfc::core::LinkChannel;
using dfc::core::LinkModel;
using dfc::df::Fifo;
using dfc::df::SimContext;
using dfc::df::VectorSink;
using dfc::df::VectorSource;

std::vector<Flit> flit_ramp(int n) {
  std::vector<Flit> v;
  for (int i = 0; i < n; ++i) v.push_back(Flit{static_cast<float>(i), false, i});
  return v;
}

TEST(LinkChannelTest, PreservesOrderAndData) {
  SimContext ctx;
  auto& in = ctx.add_fifo<Flit>("in", 4);
  auto& out = ctx.add_fifo<Flit>("out", 4);
  LinkModel link{10, 2};
  ctx.add_process<LinkChannel>("link", link, in, out);
  ctx.add_process<VectorSource<Flit>>("src", in, flit_ramp(50));
  auto& sink = ctx.add_process<VectorSink<Flit>>("sink", out);
  ctx.run_until([&] { return sink.count() == 50; }, 100'000);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(sink.tokens()[static_cast<std::size_t>(i)].data, static_cast<float>(i));
  }
}

TEST(LinkChannelTest, RateLimitedToCyclesPerWord) {
  SimContext ctx;
  auto& in = ctx.add_fifo<Flit>("in", 4);
  auto& out = ctx.add_fifo<Flit>("out", 4);
  LinkModel link{8, 4};
  ctx.add_process<LinkChannel>("link", link, in, out);
  ctx.add_process<VectorSource<Flit>>("src", in, flit_ramp(30));
  auto& sink = ctx.add_process<VectorSink<Flit>>("sink", out);
  ctx.run_until([&] { return sink.count() == 30; }, 100'000);
  const auto& arr = sink.arrival_cycles();
  for (std::size_t i = 5; i < arr.size(); ++i) {
    EXPECT_GE(arr[i] - arr[i - 1], 4u) << "word " << i;
  }
}

TEST(LinkChannelTest, AddsTraversalLatency) {
  SimContext ctx;
  auto& in = ctx.add_fifo<Flit>("in", 4);
  auto& direct = ctx.add_fifo<Flit>("direct", 4);
  auto& out = ctx.add_fifo<Flit>("out", 4);
  LinkModel link{25, 1};
  ctx.add_process<LinkChannel>("link", link, in, out);
  ctx.add_process<VectorSource<Flit>>("src1", in, flit_ramp(5));
  ctx.add_process<VectorSource<Flit>>("src2", direct, flit_ramp(5));
  auto& linked = ctx.add_process<VectorSink<Flit>>("s1", out);
  auto& plain = ctx.add_process<VectorSink<Flit>>("s2", direct);
  ctx.run_until([&] { return linked.count() == 5 && plain.count() == 5; }, 100'000);
  // First word through the link arrives ~latency cycles after the direct one.
  const auto delta = linked.arrival_cycles()[0] - plain.arrival_cycles()[0];
  EXPECT_GE(delta, 25u);
  EXPECT_LE(delta, 28u);
}

TEST(LinkChannelTest, RejectsInvalidModel) {
  SimContext ctx;
  auto& in = ctx.add_fifo<Flit>("in", 4);
  auto& out = ctx.add_fifo<Flit>("out", 4);
  EXPECT_THROW(ctx.add_process<LinkChannel>("link", LinkModel{0, 1}, in, out), ConfigError);
}

/// Two-context testbench around one InterLink triple, stepped in lockstep
/// the way MultiFpgaHarness steps device clocks.
struct InterLinkBench {
  SimContext up;
  SimContext down;
  Fifo<Flit>* in = nullptr;
  Fifo<Flit>* out = nullptr;
  std::unique_ptr<InterLinkWire> wire;
  InterLinkTx* tx = nullptr;
  InterLinkRx* rx = nullptr;
  VectorSink<Flit>* sink = nullptr;

  InterLinkBench(InterLinkModel model, std::vector<Flit> tokens,
                 std::size_t out_capacity = 4) {
    in = &up.add_fifo<Flit>("in", 4);
    out = &down.add_fifo<Flit>("out", out_capacity);
    wire = std::make_unique<InterLinkWire>("wire", model);
    tx = &up.add_process<InterLinkTx>("tx", *in, *wire);
    rx = &down.add_process<InterLinkRx>("rx", *wire, *out);
    wire->bind(tx, rx);
    up.add_process<VectorSource<Flit>>("src", *in, std::move(tokens));
    sink = &down.add_process<VectorSink<Flit>>("sink", *out);
  }

  void run_lockstep(std::size_t expect, std::uint64_t max_cycles = 100'000) {
    while (sink->count() < expect) {
      ASSERT_LT(up.cycle(), max_cycles) << "interlink bench did not converge";
      up.step();
      down.step();
    }
  }
};

TEST(InterLinkTest, PreservesOrderAndData) {
  InterLinkBench b(InterLinkModel{LinkModel{10, 2}, 0}, flit_ramp(50));
  b.run_lockstep(50);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(b.sink->tokens()[static_cast<std::size_t>(i)].data, static_cast<float>(i));
  }
}

TEST(InterLinkTest, RateLimitedToCyclesPerWord) {
  InterLinkBench b(InterLinkModel{LinkModel{8, 4}, 0}, flit_ramp(30));
  b.run_lockstep(30);
  const auto& arr = b.sink->arrival_cycles();
  for (std::size_t i = 1; i < arr.size(); ++i) {
    EXPECT_GE(arr[i] - arr[i - 1], 4u) << "word " << i;
  }
}

TEST(InterLinkTest, AddsTraversalLatency) {
  InterLinkBench b(InterLinkModel{LinkModel{25, 1}, 0}, flit_ramp(5));
  b.run_lockstep(5);
  // Word 0 is popped by the Tx at the earliest in cycle 1 (the source's push
  // commits at the end of cycle 0) and lands latency cycles later.
  EXPECT_GE(b.sink->arrival_cycles()[0], 25u);
  EXPECT_LE(b.sink->arrival_cycles()[0], 30u);
}

TEST(InterLinkTest, SingleCreditThrottlesToRoundTrip) {
  // credits=1: each word must wait for the previous word's credit to come
  // back — a full 2*latency round trip dominates the serializer rate.
  InterLinkBench b(InterLinkModel{LinkModel{10, 1}, 1}, flit_ramp(12));
  b.run_lockstep(12);
  const auto& arr = b.sink->arrival_cycles();
  for (std::size_t i = 1; i < arr.size(); ++i) {
    EXPECT_GE(arr[i] - arr[i - 1], 20u) << "word " << i;
  }
}

TEST(InterLinkTest, AutoCreditsSustainSerializerRate) {
  // Auto window = ceil(2*latency/cpw) + 2: at steady state the spacing must
  // stay at the serializer rate, not the credit round trip.
  InterLinkBench b(InterLinkModel{LinkModel{16, 2}, 0}, flit_ramp(40));
  b.run_lockstep(40);
  const auto& arr = b.sink->arrival_cycles();
  for (std::size_t i = 20; i < arr.size(); ++i) {
    EXPECT_EQ(arr[i] - arr[i - 1], 2u) << "word " << i;
  }
}

TEST(InterLinkTest, BackpressuresOnFullIngressWithoutLoss) {
  // A 2-slot ingress FIFO with a sink that only drains every 16th cycle:
  // credits must absorb the stall without dropping or reordering anything.
  SimContext up;
  SimContext down;
  auto& in = up.add_fifo<Flit>("in", 4);
  auto& out = down.add_fifo<Flit>("out", 2);
  InterLinkWire wire("wire", InterLinkModel{LinkModel{6, 1}, 0});
  auto& tx = up.add_process<InterLinkTx>("tx", in, wire);
  auto& rx = down.add_process<InterLinkRx>("rx", wire, out);
  wire.bind(&tx, &rx);
  up.add_process<VectorSource<Flit>>("src", in, flit_ramp(40));

  std::vector<Flit> received;
  std::uint64_t cycle = 0;
  while (received.size() < 40) {
    ASSERT_LT(cycle, 100'000u);
    up.step();
    down.step();
    if (cycle % 16 == 0 && out.can_pop()) received.push_back(out.pop());
    ++cycle;
  }
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)].data, static_cast<float>(i));
  }
  EXPECT_EQ(tx.words_sent(), 40u);
  EXPECT_EQ(rx.words_delivered(), 40u);
  // The last credit return is still flying home; it lands within latency.
  EXPECT_FALSE(wire.idle(0));
  EXPECT_TRUE(wire.idle(cycle + 6));
}

TEST(InterLinkTest, ModelValidatesAndSizesAutoCredits) {
  const InterLinkModel m{LinkModel{40, 4}, 0};
  EXPECT_EQ(m.effective_credits(), 22);  // ceil(80/4) + 2
  const InterLinkModel one{LinkModel{1, 1}, 0};
  EXPECT_EQ(one.effective_credits(), 4);
  const InterLinkModel fixed{LinkModel{40, 4}, 3};
  EXPECT_EQ(fixed.effective_credits(), 3);
  EXPECT_THROW((InterLinkModel{LinkModel{0, 1}, 0}).validate(), ConfigError);
  EXPECT_THROW((InterLinkModel{LinkModel{1, 1}, -1}).validate(), ConfigError);
}

TEST(UsagePerDeviceTest, SplitsAndAddsBasePerDevice) {
  const auto spec = dfc::core::make_usps_spec();
  const std::vector<std::size_t> map{0, 0, 1, 1};
  const auto usage = usage_per_device(spec, map, 2);
  const dfc::hw::CostModel cost;
  // Each hosting device pays one base design.
  EXPECT_GE(usage[0].bram36, cost.base_design.bram36);
  EXPECT_GE(usage[1].bram36, cost.base_design.bram36);
  // conv1 (fully parallel) dominates device 0; conv2 device 1.
  EXPECT_GT(usage[0].dsp, 700.0);
  EXPECT_GT(usage[1].dsp, 700.0);
  // Sum is the single-device total plus one extra base design.
  const auto single = dfc::hw::estimate_design(spec).total;
  EXPECT_NEAR(usage[0].dsp + usage[1].dsp, single.dsp + cost.base_design.dsp, 1.0);
}

TEST(MultiTimingTest, LinkStageAppears) {
  const auto spec = dfc::core::make_usps_spec();
  const std::vector<std::size_t> map{0, 0, 1, 1};
  const LinkModel link{40, 4};
  const auto est = estimate_multi_timing(spec, map, link);
  bool found = false;
  for (const auto& st : est.stages) {
    if (st.name.find("link") != std::string::npos) {
      found = true;
      // Pool output: 6x6x6 = 216 values over 6 ports = 36 words * 4 cy.
      EXPECT_EQ(st.cycles_per_image, 36 * 4);
    }
  }
  EXPECT_TRUE(found);
}

TEST(MultiTimingTest, SlowLinkBecomesBottleneck) {
  const auto spec = dfc::core::make_usps_spec();
  const std::vector<std::size_t> map{0, 0, 1, 1};
  const LinkModel slow{40, 64};
  const auto est = estimate_multi_timing(spec, map, slow);
  // 36 words * 64 = 2304 > every fabric stage.
  EXPECT_EQ(est.interval_cycles, 36 * 64);
}

TEST(PartitionTest, UspsDoesNotFitOneKintexButFitsTwo) {
  const auto spec = dfc::core::make_usps_spec();
  const auto kintex = dfc::hw::kintex7_325t();
  EXPECT_THROW(partition_network(spec, {kintex}), ConfigError);
  const MultiFpgaPlan plan = partition_network(spec, {kintex, kintex});
  EXPECT_TRUE(plan.fits);
  EXPECT_EQ(plan.num_devices_used(), 2u);
  // The DMA ingest (256 cycles) still bounds throughput: partitioning the
  // USPS design over two small parts loses nothing.
  EXPECT_EQ(plan.timing.interval_cycles, 256);
}

TEST(PartitionTest, SingleBigDeviceStaysSingle) {
  const auto spec = dfc::core::make_usps_spec();
  const auto virtex = dfc::hw::virtex7_485t();
  const MultiFpgaPlan plan = partition_network(spec, {virtex, virtex});
  EXPECT_TRUE(plan.fits);
  // Same throughput on one device: prefer fewer boards.
  EXPECT_EQ(plan.num_devices_used(), 1u);
}

TEST(PartitionTest, DescribeListsMapping) {
  const auto spec = dfc::core::make_usps_spec();
  const auto kintex = dfc::hw::kintex7_325t();
  const MultiFpgaPlan plan = partition_network(spec, {kintex, kintex});
  const std::string d = plan.describe(spec);
  EXPECT_NE(d.find("device 0"), std::string::npos);
  EXPECT_NE(d.find("device 1"), std::string::npos);
  EXPECT_NE(d.find("fits"), std::string::npos);
}

TEST(PartitionedAcceleratorTest, MatchesSingleDeviceResults) {
  dfc::core::Preset preset = dfc::core::make_usps_preset(21);
  const auto spec = preset.compile_spec();

  dfc::core::AcceleratorHarness single(dfc::core::build_accelerator(spec));

  dfc::core::BuildOptions opts;
  opts.layer_device = {0, 0, 1, 1};
  opts.link = LinkModel{40, 4};
  dfc::core::AcceleratorHarness dual(dfc::core::build_accelerator(spec, opts));

  const auto images = dfc::report::random_images(spec, 6);
  const auto rs = single.run_batch(images);
  const auto rd = dual.run_batch(images);
  for (std::size_t i = 0; i < images.size(); ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_EQ(rs.outputs[i][j], rd.outputs[i][j]) << "image " << i;
    }
  }
  // Crossing the boards adds latency but must not break streaming.
  EXPECT_GE(rd.image_latency_cycles(0), rs.image_latency_cycles(0));
}

TEST(PartitionedAcceleratorTest, SimulatedIntervalTracksPlanPrediction) {
  dfc::core::Preset preset = dfc::core::make_usps_preset(22);
  const auto spec = preset.compile_spec();
  const auto kintex = dfc::hw::kintex7_325t();
  const LinkModel link{40, 4};
  const MultiFpgaPlan plan = partition_network(spec, {kintex, kintex}, link);

  dfc::core::AcceleratorHarness harness(
      dfc::core::build_accelerator(spec, build_options_for(plan, link)));
  const auto images = dfc::report::random_images(spec, 10);
  const auto r = harness.run_batch(images);
  const double predicted = static_cast<double>(plan.timing.interval_cycles);
  EXPECT_NEAR(static_cast<double>(r.steady_interval_cycles()), predicted, 0.1 * predicted);
}

// --- multi-device executor -------------------------------------------------

namespace {

/// Runs `spec` on one device and on `devices` boards (plan from the exact
/// partitioner) and requires byte-identical logits.
void expect_multi_matches_single(const dfc::core::NetworkSpec& spec, std::size_t devices,
                                 std::size_t batch) {
  const LinkModel link{40, 4};
  const MultiFpgaPlan plan = partition_network_exact(spec, devices, link);

  dfc::core::AcceleratorHarness single(dfc::core::build_accelerator(spec));
  dfc::core::BuildOptions opts;
  opts.link = link;
  MultiFpgaHarness multi(build_multi_fpga(spec, plan.layer_device, opts));
  ASSERT_EQ(multi.device_count(), devices);
  for (const DeviceSim& dev : multi.accelerator().devices) {  // each board holds its run
    for (std::size_t li = 0; li < spec.layers.size(); ++li) {
      EXPECT_EQ(li >= dev.first_layer && li < dev.last_layer, plan.layer_device[li] == dev.device);
    }
  }

  const auto images = dfc::report::random_images(spec, batch);
  const auto rs = single.run_batch(images);
  const auto rm = multi.run_batch(images);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rm.ok()) << rm.error;
  ASSERT_EQ(rm.outputs.size(), batch);
  // Byte-identical logits: same floats, not merely close ones.
  EXPECT_EQ(rm.outputs, rs.outputs) << devices << " devices";
  EXPECT_GT(multi.accelerator().link_words_transferred(), 0u);
}

}  // anonymous helpers

TEST(MultiFpgaExecTest, UspsMatchesSingleDeviceOn2Devices) {
  expect_multi_matches_single(dfc::core::make_usps_spec(31), 2, 5);
}

TEST(MultiFpgaExecTest, UspsMatchesSingleDeviceOn3Devices) {
  expect_multi_matches_single(dfc::core::make_usps_spec(32), 3, 5);
}

TEST(MultiFpgaExecTest, UspsMatchesSingleDeviceOn4Devices) {
  expect_multi_matches_single(dfc::core::make_usps_spec(33), 4, 5);
}

TEST(MultiFpgaExecTest, CifarMatchesSingleDeviceOn2Devices) {
  expect_multi_matches_single(dfc::core::make_cifar_spec(34), 2, 3);
}

TEST(MultiFpgaExecTest, CifarMatchesSingleDeviceOn3Devices) {
  expect_multi_matches_single(dfc::core::make_cifar_spec(35), 3, 3);
}

TEST(MultiFpgaExecTest, CifarMatchesSingleDeviceOn4Devices) {
  expect_multi_matches_single(dfc::core::make_cifar_spec(36), 4, 3);
}

TEST(MultiFpgaExecTest, RunImageReturnsLogits) {
  const auto spec = dfc::core::make_usps_spec(37);
  dfc::core::BuildOptions opts;
  opts.link = LinkModel{40, 4};
  MultiFpgaHarness multi(build_multi_fpga(spec, {0, 0, 1, 1}, opts));
  const auto images = dfc::report::random_images(spec, 1);
  const auto logits = multi.run_image(images[0]);
  EXPECT_EQ(logits.size(), 10u);
}

TEST(MultiFpgaExecTest, TimeoutReturnsPartialResult) {
  const auto spec = dfc::core::make_usps_spec(38);
  dfc::core::BuildOptions opts;
  opts.link = LinkModel{40, 4};
  MultiFpgaHarness multi(build_multi_fpga(spec, {0, 0, 1, 1}, opts));
  const auto images = dfc::report::random_images(spec, 8);
  const auto r = multi.run_batch(images, 600);
  EXPECT_EQ(r.status, dfc::core::RunStatus::kTimeout);
  EXPECT_LT(r.completed(), images.size());
  EXPECT_EQ(r.requested, images.size());
  EXPECT_NE(r.error.find("exceeded"), std::string::npos);
  // The watchdog report names per-device sections.
  EXPECT_NE(r.error.find("device 0"), std::string::npos);
  EXPECT_NE(r.error.find("device 1"), std::string::npos);
}

TEST(MultiFpgaExecTest, JammedLinkIngressReportsDeadlock) {
  const auto spec = dfc::core::make_usps_spec(39);
  dfc::core::BuildOptions opts;
  opts.link = LinkModel{40, 4};
  MultiFpgaHarness multi(build_multi_fpga(spec, {0, 0, 1, 1}, opts));
  ASSERT_NE(multi.find_fifo("fpga1.L2.xfpga0"), nullptr);
  multi.set_idle_limit(2'000);

  // Wedge the link ingress handshake mid-run via the fault subsystem (a bare
  // set_fault_jammed would be undone by run_batch's reset).
  fault::FaultPlan plan;
  plan.integrity_guards = false;
  fault::FaultSpec jam;
  jam.kind = fault::FaultKind::kJam;
  jam.fifo = "fpga1.L2.xfpga0";
  jam.cycle = 300;
  jam.jam_cycles = 10'000'000;
  plan.fifo_faults.push_back(jam);
  fault::FaultInjector injector(std::move(plan));
  injector.attach(multi.device_context(1));

  const auto images = dfc::report::random_images(spec, 4);
  const auto r = multi.run_batch(images, 2'000'000);
  EXPECT_EQ(r.status, dfc::core::RunStatus::kDeadlock);
  EXPECT_NE(r.error.find("deadlock"), std::string::npos);
  EXPECT_LT(r.completed(), images.size());
  injector.detach();
}

TEST(MultiFpgaExecTest, MeasuredIntervalMatchesEstimateFastAndSlowLink) {
  // Triangle: analytic estimate vs multi-context execution vs the
  // single-context LinkChannel build, on the same mapping.
  const auto spec = dfc::core::make_usps_spec(40);
  const std::vector<std::size_t> map{0, 0, 1, 1};

  for (const int cpw : {4, 16}) {
    const LinkModel link{40, cpw};
    const double predicted = static_cast<double>(
        estimate_multi_timing(spec, map, link).interval_cycles);

    dfc::core::BuildOptions opts;
    opts.link = link;
    MultiFpgaHarness multi(build_multi_fpga(spec, map, opts));
    dfc::core::AcceleratorHarness chan(dfc::core::build_accelerator(spec, [&] {
      dfc::core::BuildOptions o = opts;
      o.layer_device = map;
      return o;
    }()));

    const auto images = dfc::report::random_images(spec, 10);
    const auto rm = multi.run_batch(images);
    const auto rc = chan.run_batch(images);
    ASSERT_TRUE(rm.ok()) << rm.error;
    ASSERT_TRUE(rc.ok());

    const auto measured_multi = static_cast<double>(rm.steady_interval_cycles());
    const auto measured_chan = static_cast<double>(rc.steady_interval_cycles());
    EXPECT_NEAR(measured_multi, predicted, 0.1 * predicted) << "cpw=" << cpw;
    EXPECT_NEAR(measured_chan, predicted, 0.1 * predicted) << "cpw=" << cpw;
    EXPECT_NEAR(measured_multi, measured_chan, 0.1 * measured_chan) << "cpw=" << cpw;
  }
}

TEST(MultiFpgaExecTest, RejectsNonMonotoneOrIncompleteMapping) {
  const auto spec = dfc::core::make_usps_spec(41);
  EXPECT_THROW(build_multi_fpga(spec, {0, 1, 0, 1}), ConfigError);
  EXPECT_THROW(build_multi_fpga(spec, {0, 0, 1}), ConfigError);
}

TEST(MultiFpgaExecTest, LinkFaultDetectedByIntegrityGuards) {
  // A bit flip inside the inter-FPGA ingress FIFO must be caught by the
  // checksum/sequence sidecars downstream on the receiving device.
  const auto spec = dfc::core::make_usps_spec(42);
  const auto images = dfc::report::random_images(spec, 2);
  // Step 3 is coprime to the 4-cycle word spacing, so the scan visits every
  // cycle parity at which the ingress FIFO can be occupied at cycle start.
  bool landed = false;
  for (std::uint64_t cycle = 300; cycle <= 1'200 && !landed; cycle += 3) {
    dfc::core::BuildOptions opts;
    opts.link = LinkModel{40, 4};
    MultiFpgaHarness multi(build_multi_fpga(spec, {0, 0, 1, 1}, opts));

    fault::FaultPlan plan;
    plan.integrity_guards = true;
    fault::FaultSpec flip;
    flip.kind = fault::FaultKind::kBitFlip;
    flip.fifo = "fpga1.L2.xfpga0";
    flip.cycle = cycle;
    flip.bit = 10;
    plan.fifo_faults.push_back(flip);
    fault::FaultInjector injector(std::move(plan));
    injector.attach(multi.device_context(1));

    const auto r = multi.run_batch(images);
    ASSERT_TRUE(r.ok()) << r.error;
    if (injector.any_injection_landed()) {
      landed = true;
      EXPECT_TRUE(injector.any_detection())
          << "bit flip at cycle " << cycle << " escaped the integrity guards";
    }
    injector.detach();
  }
  EXPECT_TRUE(landed) << "no injection cycle hit an occupied link FIFO";
}

TEST(MultiFpgaExecTest, MergedTracesKeepPerDeviceTrackNames) {
  const auto spec = dfc::core::make_usps_spec(43);
  dfc::core::BuildOptions opts;
  opts.link = LinkModel{40, 4};
  MultiFpgaHarness multi(build_multi_fpga(spec, {0, 0, 1, 1}, opts));

  obs::TraceSink dev0;
  obs::TraceSink dev1;
  multi.attach_traces({&dev0, &dev1});
  const auto images = dfc::report::random_images(spec, 2);
  const auto r = multi.run_batch(images);
  ASSERT_TRUE(r.ok()) << r.error;
  multi.detach_traces();
  ASSERT_GT(dev0.events().size(), 0u);
  ASSERT_GT(dev1.events().size(), 0u);

  obs::TraceSink merged;
  merge_traces({&dev0, &dev1}, merged);
  EXPECT_EQ(merged.entities().size(), dev0.entities().size() + dev1.entities().size());
  EXPECT_EQ(merged.events().size(), dev0.events().size() + dev1.events().size());

  bool saw_dev0 = false;
  bool saw_dev1 = false;
  for (const auto& e : merged.entities()) {
    saw_dev0 = saw_dev0 || e.name.rfind("fpga0.", 0) == 0;
    saw_dev1 = saw_dev1 || e.name.rfind("fpga1.", 0) == 0;
  }
  EXPECT_TRUE(saw_dev0);
  EXPECT_TRUE(saw_dev1);
  // Every remapped event id resolves to a registered entity.
  for (const auto& ev : merged.events()) {
    ASSERT_LT(ev.entity, merged.entities().size());
  }
}

// --- partitioner edge cases ------------------------------------------------

TEST(PartitionEdgeTest, SingleLayerNetworkStaysOnOneDevice) {
  auto spec = dfc::core::make_usps_spec(44);
  spec.layers.resize(1);
  const MultiFpgaPlan plan = partition_network_exact(spec, 1);
  EXPECT_EQ(plan.layer_device, std::vector<std::size_t>{0});
  try {
    partition_network_exact(spec, 2);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cannot split"), std::string::npos);
    EXPECT_NE(what.find(spec.name), std::string::npos);
  }
}

TEST(PartitionEdgeTest, OneDeviceListMapsEverythingToIt) {
  const auto spec = dfc::core::make_usps_spec(45);
  const MultiFpgaPlan plan = partition_network(spec, {dfc::hw::virtex7_485t()});
  EXPECT_TRUE(plan.fits);
  EXPECT_EQ(plan.num_devices_used(), 1u);
  EXPECT_EQ(plan.layer_device, std::vector<std::size_t>(spec.layers.size(), 0));
}

TEST(PartitionEdgeTest, NoFitErrorNamesTheDesign) {
  const auto spec = dfc::core::make_usps_spec(46);
  try {
    partition_network(spec, {dfc::hw::kintex7_325t()});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no contiguous partition"), std::string::npos);
    EXPECT_NE(what.find(spec.name), std::string::npos);
  }
}

TEST(PartitionEdgeTest, TieBreaksAreDeterministicAndLexicographic) {
  const auto spec = dfc::core::make_usps_spec(47);
  const LinkModel link{40, 4};

  // Repeated runs return the identical plan.
  const MultiFpgaPlan a = partition_network_exact(spec, 2, link);
  const MultiFpgaPlan b = partition_network_exact(spec, 2, link);
  EXPECT_EQ(a.layer_device, b.layer_device);

  // Reference enumeration: the chosen plan must be the lexicographically
  // smallest mapping among all 2-device cuts that achieve the best interval.
  std::int64_t best_interval = -1;
  std::vector<std::vector<std::size_t>> winners;
  for (std::size_t cut = 1; cut < spec.layers.size(); ++cut) {
    std::vector<std::size_t> map(spec.layers.size(), 0);
    for (std::size_t i = cut; i < map.size(); ++i) map[i] = 1;
    const auto est = estimate_multi_timing(spec, map, link);
    if (best_interval < 0 || est.interval_cycles < best_interval) {
      best_interval = est.interval_cycles;
      winners.clear();
    }
    if (est.interval_cycles == best_interval) winners.push_back(map);
  }
  ASSERT_GE(winners.size(), 2u) << "expected an interval tie on USPS/2 devices";
  EXPECT_EQ(a.timing.interval_cycles, best_interval);
  EXPECT_EQ(a.layer_device, *std::min_element(winners.begin(), winners.end()));

  const MultiFpgaPlan c = partition_network(spec, {dfc::hw::kintex7_325t(),
                                                   dfc::hw::kintex7_325t()}, link);
  const MultiFpgaPlan d = partition_network(spec, {dfc::hw::kintex7_325t(),
                                                   dfc::hw::kintex7_325t()}, link);
  EXPECT_EQ(c.layer_device, d.layer_device);
}

TEST(PartitionEdgeTest, EstimatorAppliesCreditCap) {
  const auto spec = dfc::core::make_usps_spec(48);
  const std::vector<std::size_t> map{0, 0, 1, 1};
  const LinkModel link{40, 4};
  // credits=1: one word per 80-cycle round trip → 36 words × 80 cycles.
  const auto est = estimate_multi_timing(spec, map, link, 1);
  EXPECT_EQ(est.interval_cycles, 36 * 80);
  // A generous window restores the serializer rate.
  const auto wide = estimate_multi_timing(spec, map, link, 64);
  EXPECT_EQ(wide.interval_cycles, 256);
}

// --- fault campaign over the partitioned design ----------------------------

TEST(MultiFpgaCampaignTest, PartitionedBuildExposesLinkSitesAndStaysDetected) {
  const auto spec = dfc::core::make_usps_spec(49);
  fault::CampaignConfig config;
  config.trials = 6;
  config.batch = 2;
  config.seed = 5;
  config.detection = true;
  config.build.layer_device = {0, 0, 1, 1};
  config.build.link = LinkModel{40, 4};

  const fault::CampaignResult result = fault::run_campaign(spec, config);
  bool has_link_site = false;
  for (const auto& site : result.sites) {
    has_link_site = has_link_site || site.find("xfpga") != std::string::npos;
  }
  EXPECT_TRUE(has_link_site);
  EXPECT_EQ(result.sdc, 0u) << result.classification_line();
  EXPECT_EQ(result.masked + result.detected_recovered + result.sdc + result.hang,
            config.trials);
}

// --- link attribution ----------------------------------------------------------

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

MultiFpgaHarness make_usps_harness(int cycles_per_word) {
  const auto spec = dfc::core::make_usps_spec(3);
  const LinkModel link{40, cycles_per_word};
  const auto plan = partition_network_exact(spec, 2, link);
  dfc::core::BuildOptions opts;
  opts.link = link;
  return MultiFpgaHarness(build_multi_fpga(spec, plan.layer_device, opts));
}

TEST(LinkAttributionTest, BucketsSumToObservedCyclesAcrossThreadSettings) {
  const auto spec = dfc::core::make_usps_spec(3);
  const auto images = dfc::report::random_images(spec, 8);

  std::vector<obs::LinkActivity> reference;
  for (const char* threads : {"1", "4"}) {
    ScopedSweepThreads scoped(threads);
    MultiFpgaHarness harness = make_usps_harness(2);
    harness.set_link_attribution(true);
    const auto result = harness.run_batch(images);
    ASSERT_TRUE(result.ok()) << result.error;
    ASSERT_GT(harness.link_observed_cycles(), 0u);
    std::vector<obs::LinkActivity> counts;
    for (std::size_t i = 0; i < harness.accelerator().wires.size(); ++i) {
      const obs::LinkActivity& a = harness.link_activity(i);
      // The exactness contract: the four buckets partition every classified
      // global cycle.
      EXPECT_EQ(a.total(), harness.link_observed_cycles());
      EXPECT_GT(a.wire_busy, 0u);
      counts.push_back(a);
    }
    if (reference.empty()) {
      reference = counts;
    } else {
      ASSERT_EQ(reference.size(), counts.size());
      for (std::size_t i = 0; i < counts.size(); ++i) {
        EXPECT_EQ(reference[i].wire_busy, counts[i].wire_busy);
        EXPECT_EQ(reference[i].credit_stall, counts[i].credit_stall);
        EXPECT_EQ(reference[i].rx_backpressure, counts[i].rx_backpressure);
        EXPECT_EQ(reference[i].idle, counts[i].idle);
      }
    }
  }
}

TEST(LinkAttributionTest, AttributionDoesNotChangeResults) {
  const auto spec = dfc::core::make_usps_spec(3);
  const auto images = dfc::report::random_images(spec, 8);

  MultiFpgaHarness plain = make_usps_harness(2);
  const auto r_plain = plain.run_batch(images);

  MultiFpgaHarness observed = make_usps_harness(2);
  observed.set_link_attribution(true);
  const auto r_obs = observed.run_batch(images);

  ASSERT_TRUE(r_plain.ok());
  ASSERT_TRUE(r_obs.ok());
  EXPECT_EQ(r_plain.outputs, r_obs.outputs);
  EXPECT_EQ(r_plain.total_cycles(), r_obs.total_cycles());
  EXPECT_EQ(r_plain.steady_interval_cycles(), r_obs.steady_interval_cycles());
}

TEST(LinkAttributionTest, SlowLinkShowsWireBusyDominance) {
  const auto spec = dfc::core::make_usps_spec(3);
  MultiFpgaHarness harness = make_usps_harness(8);  // 0.4 Gbps
  harness.set_link_attribution(true);
  const auto result = harness.run_batch(dfc::report::random_images(spec, 8));
  ASSERT_TRUE(result.ok()) << result.error;
  const obs::LinkActivity& a = harness.link_activity(0);
  EXPECT_GT(a.wire_busy, a.idle);
  EXPECT_EQ(a.total(), harness.link_observed_cycles());
}

TEST(LinkAttributionTest, FifoReportListsInterlinkChannelsAndStalls) {
  const auto spec = dfc::core::make_usps_spec(3);
  MultiFpgaHarness harness = make_usps_harness(2);
  harness.set_link_attribution(true);
  ASSERT_TRUE(harness.run_batch(dfc::report::random_images(spec, 4)).ok());
  const std::string report = harness.fifo_report();
  EXPECT_NE(report.find("interlink channels"), std::string::npos);
  EXPECT_NE(report.find("tx_fifo"), std::string::npos);
  EXPECT_NE(report.find("rx_fifo"), std::string::npos);
  EXPECT_NE(report.find("full_stalls="), std::string::npos);
  EXPECT_NE(report.find("empty_stalls="), std::string::npos);
  EXPECT_NE(report.find("interlink attribution"), std::string::npos);
  EXPECT_NE(report.find("wire_busy="), std::string::npos);
}

TEST(LinkAttributionTest, LinkTraceEmitsStateAndCreditEvents) {
  const auto spec = dfc::core::make_usps_spec(3);
  MultiFpgaHarness harness = make_usps_harness(2);
  obs::TraceSink sink;
  harness.attach_link_trace(&sink);
  ASSERT_TRUE(harness.run_batch(dfc::report::random_images(spec, 4)).ok());
  ASSERT_FALSE(sink.entities().empty());
  EXPECT_EQ(sink.entity(0).kind, obs::EntityKind::kLink);
  bool saw_state = false;
  bool saw_credits = false;
  for (const obs::TraceEvent& ev : sink.events()) {
    saw_state = saw_state || ev.kind == obs::EventKind::kLinkState;
    saw_credits = saw_credits || ev.kind == obs::EventKind::kLinkCredits;
  }
  EXPECT_TRUE(saw_state);
  EXPECT_TRUE(saw_credits);
}

}  // namespace
}  // namespace dfc::mfpga
