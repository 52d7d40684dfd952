// Tests for the static design verifier (src/verify): one minimal triggering
// design per diagnostic code (asserted by code, never by message text), the
// deadlock cross-validation suite (every deadlock-class diagnostic has a sim
// twin that reaches RunStatus::kDeadlock in the cycle engine; clean presets
// simulate with unchanged logits), the spec rules shared by validate() and
// the verifier, the realization of core::elaborate's graph by the builders,
// deterministic JSON, the structured builder/exec diagnostics, and pins of
// the verifier JSON and the builders' registration order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/harness.hpp"
#include "core/presets.hpp"
#include "dataflow/endpoints.hpp"
#include "multifpga/exec.hpp"
#include "multifpga/partition.hpp"
#include "report/experiments.hpp"
#include "sst/port_adapters.hpp"
#include "verify/verifier.hpp"

namespace dfc::verify {
namespace {

using dfc::axis::Flit;
using dfc::core::BuildOptions;
using dfc::core::ConvLayerSpec;
using dfc::core::DesignGraph;
using dfc::core::FcnLayerSpec;
using dfc::core::NetworkSpec;
using dfc::core::NodeKind;
using dfc::core::PoolLayerSpec;
using dfc::core::RunStatus;
using dfc::df::Fifo;
using dfc::df::SimContext;

/// Smallest valid design: one 3x3 conv, 2 -> 2 feature maps on 4x4 input.
NetworkSpec tiny_spec() {
  NetworkSpec spec;
  spec.name = "tiny";
  spec.input_shape = Shape3{2, 4, 4};
  ConvLayerSpec conv;
  conv.in_shape = spec.input_shape;
  conv.out_fm = 2;
  conv.kh = conv.kw = 3;
  conv.weights.assign(2 * 2 * 9, 0.1f);
  conv.biases.assign(2, 0.0f);
  spec.layers.push_back(conv);
  return spec;
}

/// tiny_spec + a pool + an fcn, for partition/boundary tests.
NetworkSpec tiny_pipeline() {
  NetworkSpec spec = tiny_spec();
  PoolLayerSpec pool;
  pool.in_shape = Shape3{2, 2, 2};
  pool.kh = pool.kw = 2;
  pool.stride = 2;
  spec.layers.push_back(pool);
  FcnLayerSpec fcn;
  fcn.in_count = 2;
  fcn.out_count = 3;
  fcn.weights.assign(2 * 3, 0.05f);
  fcn.biases.assign(3, 0.0f);
  spec.layers.push_back(fcn);
  return spec;
}

// --- one minimal triggering design per code ----------------------------------

TEST(VerifyCodesTest, DF101ShapeMismatch) {
  NetworkSpec spec = tiny_spec();
  std::get<ConvLayerSpec>(spec.layers[0]).in_shape = Shape3{3, 4, 4};
  const auto r = verify_design(spec);
  EXPECT_TRUE(r.has(Code::DF101));
  EXPECT_FALSE(r.clean());
}

TEST(VerifyCodesTest, DF102PortDivisibility) {
  NetworkSpec spec = tiny_spec();
  auto& conv = std::get<ConvLayerSpec>(spec.layers[0]);
  conv.out_fm = 3;  // 3 FMs on 2 out ports
  conv.out_ports = 2;
  conv.weights.assign(3 * 2 * 9, 0.1f);
  conv.biases.assign(3, 0.0f);
  EXPECT_TRUE(verify_design(spec).has(Code::DF102));
}

TEST(VerifyCodesTest, DF103WeightTableSize) {
  NetworkSpec spec = tiny_spec();
  std::get<ConvLayerSpec>(spec.layers[0]).weights.pop_back();
  EXPECT_TRUE(verify_design(spec).has(Code::DF103));
}

TEST(VerifyCodesTest, DF104FilterChainWithPadding) {
  NetworkSpec spec = tiny_spec();
  auto& conv = std::get<ConvLayerSpec>(spec.layers[0]);
  conv.pad = 1;
  conv.use_filter_chain = true;
  EXPECT_TRUE(verify_design(spec).has(Code::DF104));
}

TEST(VerifyCodesTest, DF105ClassifierInputCount) {
  NetworkSpec spec = tiny_pipeline();
  std::get<FcnLayerSpec>(spec.layers[2]).in_count = 7;
  EXPECT_TRUE(verify_design(spec).has(Code::DF105));
}

TEST(VerifyCodesTest, DF201ShallowFifo) {
  BuildOptions opts;
  opts.stream_fifo_capacity = 1;
  const auto r = verify_design(tiny_spec(), opts);
  EXPECT_TRUE(r.has(Code::DF201));
  EXPECT_TRUE(r.clean()) << "capacity 1 throttles but does not break the design";

  BuildOptions zero;
  zero.window_fifo_capacity = 0;
  EXPECT_FALSE(verify_design(tiny_spec(), zero).clean())
      << "capacity 0 can never transfer and must be an error";
}

TEST(VerifyCodesTest, DF202LinkThrottles) {
  NetworkSpec spec = tiny_pipeline();
  BuildOptions opts;
  opts.link = dfc::core::LinkModel{40, 1000};  // 1 word per 1000 cycles
  const std::vector<std::size_t> cut{0, 1, 1};
  const auto r = verify_design_multi(spec, cut, opts);
  EXPECT_TRUE(r.has(Code::DF202));
  EXPECT_TRUE(r.clean()) << "a throttling link is a warning, not an error";
}

TEST(VerifyCodesTest, DF203CreditWindowBelowRoundTrip) {
  NetworkSpec spec = tiny_pipeline();
  BuildOptions opts;
  opts.link = dfc::core::LinkModel{40, 1};  // round trip needs 82 credits
  const std::vector<std::size_t> cut{0, 1, 1};
  EXPECT_TRUE(verify_design_multi(spec, cut, opts, /*link_credits=*/1).has(Code::DF203));
  EXPECT_FALSE(verify_design_multi(spec, cut, opts, /*link_credits=*/0).has(Code::DF203))
      << "credits=0 auto-sizes the window";
}

TEST(VerifyCodesTest, DF001DanglingProducer) {
  DesignGraph g;
  const int src = g.add_node("src", NodeKind::kDmaSource);
  const int ch = g.add_channel("fed", 4);
  g.bind_producer(ch, src);
  const int orphan = g.add_channel("orphan", 4);
  const int sink = g.add_node("sink", NodeKind::kDmaSink);
  g.bind_consumer(ch, sink);
  g.bind_consumer(orphan, sink);
  const auto r = verify_graph(g);
  EXPECT_TRUE(r.has(Code::DF001));
  EXPECT_FALSE(r.clean());
}

TEST(VerifyCodesTest, DF002DanglingConsumer) {
  DesignGraph g;
  const int src = g.add_node("src", NodeKind::kDmaSource);
  const int ch = g.add_channel("dead-end", 4);
  g.bind_producer(ch, src);
  EXPECT_TRUE(verify_graph(g).has(Code::DF002));
}

TEST(VerifyCodesTest, DF003DuplicateName) {
  DesignGraph g;
  const int a = g.add_node("stage", NodeKind::kConv);
  const int b = g.add_node("stage", NodeKind::kPool);
  const int ch = g.add_channel("ch", 4);
  g.bind_producer(ch, a);
  g.bind_consumer(ch, b);
  EXPECT_TRUE(verify_graph(g).has(Code::DF003));
}

TEST(VerifyCodesTest, DF004UnreachableStage) {
  DesignGraph g;
  const int src = g.add_node("src", NodeKind::kDmaSource);
  const int sink = g.add_node("sink", NodeKind::kDmaSink);
  const int ch = g.add_channel("main", 4);
  g.bind_producer(ch, src);
  g.bind_consumer(ch, sink);
  // Two stages feeding each other, cut off from the source.
  const int a = g.add_node("islandA", NodeKind::kConv);
  const int b = g.add_node("islandB", NodeKind::kConv);
  const int f = g.add_channel("island.fwd", 4);
  const int r = g.add_channel("island.back", 4);
  g.bind_producer(f, a);
  g.bind_consumer(f, b);
  g.bind_producer(r, b);
  g.bind_consumer(r, a);
  const auto rep = verify_graph(g);
  EXPECT_TRUE(rep.has(Code::DF004));
  EXPECT_TRUE(rep.has(Code::DF302)) << "the island is also a token-free cycle";
}

TEST(VerifyCodesTest, DF301SinkDemandExceedsDelivery) {
  DesignGraph g;
  const int src = g.add_node("src", NodeKind::kDmaSource);
  const int ch = g.add_channel("ch", 4);
  const int sink = g.add_node("sink", NodeKind::kDmaSink);
  g.bind_producer(ch, src);
  g.bind_consumer(ch, sink);
  g.nodes[static_cast<std::size_t>(sink)].demand_per_image = 5;
  g.delivered_per_image = 4;
  EXPECT_TRUE(verify_graph(g).has(Code::DF301));
  g.delivered_per_image = 5;
  EXPECT_FALSE(verify_graph(g).has(Code::DF301));
}

TEST(VerifyCodesTest, DF302FeedbackCycle) {
  // src -> merge -> demux -> sink, with demux feeding one output back into
  // the merge: a token-free feedback loop.
  DesignGraph g;
  const int src = g.add_node("src", NodeKind::kDmaSource);
  const int merge = g.add_node("merge", NodeKind::kMerge);
  const int demux = g.add_node("demux", NodeKind::kDemux);
  const int sink = g.add_node("sink", NodeKind::kDmaSink);
  const int in = g.add_channel("src.out", 4);
  const int merged = g.add_channel("merged", 4);
  const int out = g.add_channel("out", 4);
  const int fb = g.add_channel("feedback", 4);
  g.bind_producer(in, src);
  g.bind_consumer(in, merge);
  g.bind_producer(merged, merge);
  g.bind_consumer(merged, demux);
  g.bind_producer(out, demux);
  g.bind_consumer(out, sink);
  g.bind_producer(fb, demux);
  g.bind_consumer(fb, merge);
  const auto r = verify_graph(g);
  EXPECT_TRUE(r.has(Code::DF302));
  EXPECT_FALSE(r.clean());
}

TEST(VerifyCodesTest, DF401BudgetExceeded) {
  const auto spec = dfc::core::make_alexnet_mini_preset().compile_spec();
  const auto r = verify_design(spec);
  EXPECT_TRUE(r.has(Code::DF401));
  EXPECT_FALSE(r.clean());
}

TEST(VerifyCodesTest, DF402HeadroomWarning) {
  VerifyOptions vopts;
  vopts.headroom_warn_fraction = 0.001;  // anything with a base design trips it
  const auto r = verify_design(tiny_spec(), {}, vopts);
  EXPECT_TRUE(r.has(Code::DF402));
  EXPECT_TRUE(r.clean()) << "headroom is advisory";
}

TEST(VerifyCodesTest, DF403IllegalPartition) {
  const NetworkSpec spec = tiny_pipeline();
  EXPECT_TRUE(verify_design_multi(spec, {0, 1}, {}).has(Code::DF403)) << "coverage";
  EXPECT_TRUE(verify_design_multi(spec, {1, 0, 0}, {}).has(Code::DF403)) << "monotonicity";
  EXPECT_FALSE(verify_design_multi(spec, {0, 0, 1}, {}).has(Code::DF403));
}

// --- deadlock cross-validation: flagged graphs deadlock in the cycle engine --

/// Hand-assembles an Accelerator around `ctx` so AcceleratorHarness can run
/// it and classify the outcome (the builder would refuse these topologies).
dfc::core::Accelerator wrap(std::unique_ptr<SimContext> ctx, dfc::core::DmaSource* source,
                            dfc::core::DmaSink* sink) {
  dfc::core::Accelerator acc;
  acc.ctx = ctx.get();
  acc.contexts.push_back(std::move(ctx));
  acc.spec = tiny_spec();  // placeholder; only the engine loop runs
  acc.source = source;
  acc.sink = sink;
  return acc;
}

TEST(VerifyDeadlockTest, DanglingProducerDeadlocksInSim) {
  // A merge reading [fed, orphan] in turn: the orphan FIFO never produces, so
  // the merge wedges after one value. verify_graph flags the orphan as DF001;
  // the cycle engine reaches RunStatus::kDeadlock on the twin.
  DesignGraph g;
  const int src = g.add_node("dma.source", NodeKind::kDmaSource);
  const int fed = g.add_channel("fed", 8);
  const int orphan = g.add_channel("orphan", 8);
  const int merge = g.add_node("merge", NodeKind::kMerge);
  const int merged = g.add_channel("merged", 8);
  const int sink = g.add_node("dma.sink", NodeKind::kDmaSink);
  g.bind_producer(fed, src);
  g.bind_consumer(fed, merge);
  g.bind_consumer(orphan, merge);
  g.bind_producer(merged, merge);
  g.bind_consumer(merged, sink);
  EXPECT_TRUE(verify_graph(g).has(Code::DF001));

  auto ctx = std::make_unique<SimContext>();
  auto& f_fed = ctx->add_fifo<Flit>("fed", 8);
  auto& f_orphan = ctx->add_fifo<Flit>("orphan", 8);
  auto& f_merged = ctx->add_fifo<Flit>("merged", 8);
  const Shape3 img{1, 2, 2};
  auto* source = &ctx->add_process<dfc::core::DmaSource>("dma.source", f_fed, img);
  ctx->add_process<dfc::sst::PortMerge>("merge", 1,
                                        std::vector<Fifo<Flit>*>{&f_fed, &f_orphan}, f_merged);
  auto* sinkp = &ctx->add_process<dfc::core::DmaSink>("dma.sink", f_merged, img.volume());
  dfc::core::AcceleratorHarness h(wrap(std::move(ctx), source, sinkp));
  h.set_idle_limit(2'000);
  const auto r = h.run_batch(std::vector<Tensor>{Tensor(img)}, 100'000);
  EXPECT_EQ(r.status, RunStatus::kDeadlock);
}

TEST(VerifyDeadlockTest, SinkDemandMismatchDeadlocksInSim) {
  // Pipeline delivers 4 words/image; the sink insists on 5. DF301 statically,
  // kDeadlock dynamically (the sink waits forever for the fifth word).
  DesignGraph g;
  const int src = g.add_node("dma.source", NodeKind::kDmaSource);
  const int ch = g.add_channel("dma.in", 8);
  const int sink = g.add_node("dma.sink", NodeKind::kDmaSink);
  g.bind_producer(ch, src);
  g.bind_consumer(ch, sink);
  g.nodes[static_cast<std::size_t>(sink)].demand_per_image = 5;
  g.delivered_per_image = 4;
  EXPECT_TRUE(verify_graph(g).has(Code::DF301));

  auto ctx = std::make_unique<SimContext>();
  auto& ch_f = ctx->add_fifo<Flit>("dma.in", 8);
  const Shape3 img{1, 2, 2};  // 4 words
  auto* source = &ctx->add_process<dfc::core::DmaSource>("dma.source", ch_f, img);
  auto* sinkp = &ctx->add_process<dfc::core::DmaSink>("dma.sink", ch_f, 5);
  dfc::core::AcceleratorHarness h(wrap(std::move(ctx), source, sinkp));
  h.set_idle_limit(2'000);
  const auto r = h.run_batch(std::vector<Tensor>{Tensor(img)}, 100'000);
  EXPECT_EQ(r.status, RunStatus::kDeadlock);
}

TEST(VerifyDeadlockTest, FeedbackCycleDeadlocksInSim) {
  // The DF302 graph above, realised with real adapters: PortMerge reads
  // [src, feedback] in turn; PortDemux routes every second value back into
  // the feedback FIFO. The merge blocks on the empty feedback channel after
  // one value — a circular wait the idle watchdog converts to kDeadlock.
  DesignGraph g;
  const int src = g.add_node("dma.source", NodeKind::kDmaSource);
  const int merge = g.add_node("merge", NodeKind::kMerge);
  const int demux = g.add_node("demux", NodeKind::kDemux);
  const int sink = g.add_node("dma.sink", NodeKind::kDmaSink);
  const int in = g.add_channel("dma.in", 8);
  const int merged = g.add_channel("merged", 8);
  const int out = g.add_channel("out", 8);
  const int fb = g.add_channel("feedback", 8);
  g.bind_producer(in, src);
  g.bind_consumer(in, merge);
  g.bind_producer(merged, merge);
  g.bind_consumer(merged, demux);
  g.bind_producer(out, demux);
  g.bind_consumer(out, sink);
  g.bind_producer(fb, demux);
  g.bind_consumer(fb, merge);
  EXPECT_TRUE(verify_graph(g).has(Code::DF302));

  auto ctx = std::make_unique<SimContext>();
  auto& f_in = ctx->add_fifo<Flit>("dma.in", 8);
  auto& f_merged = ctx->add_fifo<Flit>("merged", 8);
  auto& f_out = ctx->add_fifo<Flit>("out", 8);
  auto& f_fb = ctx->add_fifo<Flit>("feedback", 8);
  const Shape3 img{1, 2, 2};
  auto* source = &ctx->add_process<dfc::core::DmaSource>("dma.source", f_in, img);
  ctx->add_process<dfc::sst::PortMerge>("merge", 1, std::vector<Fifo<Flit>*>{&f_in, &f_fb},
                                        f_merged);
  ctx->add_process<dfc::sst::PortDemux>("demux", 2, f_merged,
                                        std::vector<Fifo<Flit>*>{&f_out, &f_fb});
  auto* sinkp = &ctx->add_process<dfc::core::DmaSink>("dma.sink", f_out, img.volume());
  dfc::core::AcceleratorHarness h(wrap(std::move(ctx), source, sinkp));
  h.set_idle_limit(2'000);
  const auto r = h.run_batch(std::vector<Tensor>{Tensor(img)}, 100'000);
  EXPECT_EQ(r.status, RunStatus::kDeadlock);
}

// --- clean designs: zero diagnostics, unchanged logits -----------------------

TEST(VerifyCleanTest, PresetsVerifyClean) {
  for (const char* name : {"usps", "cifar"}) {
    const auto preset = name == std::string("usps") ? dfc::core::make_usps_preset()
                                                    : dfc::core::make_cifar_preset();
    const auto spec = preset.compile_spec();
    const auto r = verify_design(spec);
    EXPECT_TRUE(r.clean()) << r.render();
    EXPECT_TRUE(r.diagnostics.empty()) << r.render();
    // 2..4-board cuts of the same presets are clean too (with a link fast
    // enough not to throttle; the default 4-cycle/word link earns an honest
    // DF202 warning on the 4-board usps cut).
    const dfc::core::LinkModel fast_link{40, 1};
    BuildOptions mopts;
    mopts.link = fast_link;
    for (std::size_t boards = 2; boards <= 4 && boards <= spec.layers.size(); ++boards) {
      const auto plan = dfc::mfpga::partition_network_exact(spec, boards, fast_link);
      const auto rm = verify_design_multi(spec, plan.layer_device, mopts);
      EXPECT_TRUE(rm.diagnostics.empty()) << rm.render();
      EXPECT_EQ(rm.devices, boards);
    }
  }
}

TEST(VerifyCleanTest, CleanDesignSimulatesWithUnchangedLogits) {
  const auto spec = dfc::core::make_usps_preset().compile_spec();
  ASSERT_TRUE(verify_design(spec).clean());

  const auto images = dfc::report::random_images(spec, 3);
  dfc::core::AcceleratorHarness single(dfc::core::build_accelerator(spec));
  const auto rs = single.run_batch(images);
  ASSERT_EQ(rs.status, RunStatus::kOk);

  const auto plan = dfc::mfpga::partition_network_exact(spec, 2, {});
  ASSERT_TRUE(verify_design_multi(spec, plan.layer_device, {}).clean());
  dfc::mfpga::MultiFpgaHarness multi(
      dfc::mfpga::build_multi_fpga(spec, plan.layer_device, {}));
  const auto rm = multi.run_batch(images);
  ASSERT_EQ(rm.status, RunStatus::kOk);
  EXPECT_EQ(rs.outputs, rm.outputs) << "verified-clean cuts must not change logits";
}

// --- deterministic JSON ------------------------------------------------------

TEST(VerifyReportTest, JsonIsByteIdenticalAcrossSweepThreads) {
  const auto spec = dfc::core::make_usps_preset().compile_spec();
  ::setenv("DFCNN_SWEEP_THREADS", "1", 1);
  const std::string a = verify_design(spec).to_json();
  ::setenv("DFCNN_SWEEP_THREADS", "8", 1);
  const std::string b = verify_design(spec).to_json();
  ::unsetenv("DFCNN_SWEEP_THREADS");
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"clean\": true"), std::string::npos);
}

TEST(VerifyReportTest, ReportAccessorsAndThrow) {
  NetworkSpec spec = tiny_spec();
  std::get<ConvLayerSpec>(spec.layers[0]).weights.pop_back();
  const auto r = verify_design(spec);
  EXPECT_GE(r.errors(), 1u);
  EXPECT_FALSE(r.clean());
  // validate() throws exactly the errors the report lists; a clean spec
  // does not throw.
  try {
    spec.validate();
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    ASSERT_EQ(e.diagnostics().size(), r.errors());
    EXPECT_EQ(e.diagnostics()[0].code, Code::DF103);
  }
  tiny_spec().validate();
}

// --- promoted construction-path diagnostics ----------------------------------

TEST(VerifyPromotionTest, AdapterDivisibilityThrowsStructured) {
  // One stream of 2 interleaved channels cannot fan out to 3 pool cores.
  NetworkSpec spec = tiny_pipeline();
  std::get<PoolLayerSpec>(spec.layers[1]).ports = 3;
  try {
    dfc::core::build_accelerator(spec);
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    ASSERT_EQ(e.diagnostics().size(), 1u);
    EXPECT_EQ(e.diagnostics()[0].code, Code::DF102);
    EXPECT_EQ(e.diagnostics()[0].entity, "L1");
  }
}

TEST(VerifyPromotionTest, BuilderCollectsEveryError) {
  NetworkSpec spec = tiny_spec();
  auto& conv = std::get<ConvLayerSpec>(spec.layers[0]);
  conv.weights.pop_back();
  conv.biases.pop_back();
  try {
    dfc::core::build_accelerator(spec);
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostics().size(), 2u) << "both DF103 findings, not just the first";
    for (const auto& d : e.diagnostics()) EXPECT_EQ(d.code, Code::DF103);
  }
}

TEST(VerifyPromotionTest, BuilderPartitionCoverageThrowsStructured) {
  try {
    dfc::mfpga::build_multi_fpga(tiny_pipeline(), {0}, {});  // tiny_pipeline has 3 layers
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostics()[0].code, Code::DF403);
  }
}

TEST(VerifyPromotionTest, ExecutorPartitionThrowsStructured) {
  try {
    dfc::mfpga::build_multi_fpga(tiny_pipeline(), {1, 0, 0}, {});
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostics()[0].code, Code::DF403);
  }
  try {
    dfc::mfpga::build_multi_fpga(tiny_pipeline(), {0, 1}, {});
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.diagnostics()[0].code, Code::DF403);
  }
}

// --- pinned outputs of the elaboration ---------------------------------------
//
// FNV-1a 64 pins of what the one elaborated design graph must not move: the
// verifier's JSON on every shipped preset and board cut, and the ordered FIFO
// and process registration lists of every build (run_campaign draws fault
// sites by FIFO index; trace entity ids follow registration order).

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<NetworkSpec> preset_specs() {
  return {dfc::core::make_usps_preset().compile_spec(),
          dfc::core::make_cifar_preset().compile_spec(),
          dfc::core::make_alexnet_mini_preset().compile_spec()};
}

/// A build the pins and the realization test cover: build_accelerator when
/// layer_device is empty, otherwise build_multi_fpga on that cut.
struct CoveredBuild {
  std::string name;
  NetworkSpec spec;
  BuildOptions options;
  std::vector<std::size_t> layer_device;
};

/// The presets; usps with both convs on filter chains; and each preset's
/// 2..4-board exact cut.
std::vector<CoveredBuild> covered_builds() {
  const auto specs = preset_specs();
  std::vector<CoveredBuild> builds;
  for (const NetworkSpec& spec : specs) builds.push_back({spec.name, spec, {}, {}});
  builds.push_back({"usps-filter-chains", specs[0], {}, {}});
  for (auto& layer : builds.back().spec.layers) {
    if (auto* conv = std::get_if<ConvLayerSpec>(&layer)) conv->use_filter_chain = true;
  }
  for (const NetworkSpec& spec : specs) {
    for (std::size_t boards = 2; boards <= 4; ++boards) {
      builds.push_back({spec.name + "-" + std::to_string(boards) + "board", spec, {},
                        dfc::mfpga::partition_network_exact(spec, boards, {}).layer_device});
    }
  }
  return builds;
}

/// Builds `b` and calls visit(contexts, built design, graph elaborated apart).
template <typename Visit>
void build(const CoveredBuild& b, Visit visit) {
  if (b.layer_device.empty()) {
    const auto acc = dfc::core::build_accelerator(b.spec, b.options);
    visit(std::vector<const SimContext*>{acc.ctx}, acc,
          dfc::core::elaborate(b.spec, b.options));
    return;
  }
  const auto acc = dfc::mfpga::build_multi_fpga(b.spec, b.layer_device, b.options);
  std::vector<const SimContext*> contexts;
  for (const auto& ctx : acc.contexts) contexts.push_back(ctx.get());
  visit(contexts, acc, dfc::core::elaborate(b.spec, b.options, b.layer_device));
}

TEST(VerifyPinTest, ReportJsonMatchesPinnedHashes) {
  // Per preset: the single-board report, then for each 2..4-board exact cut
  // the default link (usps's 4-board cut warns DF202), a one-cycle-per-word
  // link, and a one-credit window (DF203) — the cut `dfcnn check` verifies.
  const std::uint64_t pins[] = {0x68480c258575dc45ULL, 0x1097749b7f603b5aULL,
                                0x8afb9e9e08ad81a2ULL};
  const auto specs = preset_specs();
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const NetworkSpec& spec = specs[s];
    std::string all = verify_design(spec).to_json() + "\n";
    for (const auto& [link, credits] : {std::pair{dfc::core::LinkModel{40, 4}, 0},
                                        std::pair{dfc::core::LinkModel{40, 1}, 0},
                                        std::pair{dfc::core::LinkModel{40, 4}, 1}}) {
      for (std::size_t boards = 2; boards <= 4; ++boards) {
        BuildOptions opts;
        opts.link = link;
        const auto plan = dfc::mfpga::partition_network_exact(spec, boards, link, credits);
        const auto r = verify_design_multi(spec, plan.layer_device, opts, credits);
        EXPECT_EQ(r.has(Code::DF203), credits == 1) << spec.name;
        if (s == 0 && boards == 4 && link.cycles_per_word == 4) {
          EXPECT_TRUE(r.has(Code::DF202));
        }
        all += r.to_json() + "\n";
      }
    }
    EXPECT_EQ(fnv1a(all), pins[s]) << spec.name << std::hex << " 0x" << fnv1a(all);
  }
}

TEST(VerifyPinTest, BuildRegistrationOrderMatchesPinnedHashes) {
  const std::uint64_t pins[] = {
      0x7bab0a4a900e060fULL, 0x77e93b27fc47342fULL, 0x38dd01b3a4967c6fULL,  // presets
      0x18add7433dfa35e2ULL,                         // usps filter chains
      0x62ae096c911fd234ULL, 0x3dcb56b38b884634ULL, 0x449c1e734fe07bd4ULL,  // usps 2-4
      0x44cacab0a22a6312ULL, 0x97e964056a188cfcULL, 0x1a583506799dde05ULL,  // cifar 2-4
      0x0699ab1e039cabd2ULL, 0x7e8dc5e3afac60a0ULL, 0xb6ec608856117fd3ULL,  // alexnet 2-4
  };
  const auto builds = covered_builds();
  ASSERT_EQ(builds.size(), std::size(pins));
  for (std::size_t i = 0; i < builds.size(); ++i) {
    build(builds[i], [&](const auto& contexts, const dfc::core::DesignInstance& acc,
                         const DesignGraph&) {
      // Per context "name\tcapacity" per FIFO, then each process name; then
      // the wires.
      std::string s;
      for (const SimContext* ctx : contexts) {
        for (std::size_t f = 0; f < ctx->fifo_count(); ++f) {
          s += ctx->fifo(f).name() + "\t" + std::to_string(ctx->fifo(f).capacity()) + "\n";
        }
        for (std::size_t p = 0; p < ctx->process_count(); ++p) s += ctx->process(p).name() + "\n";
        s += "==\n";
      }
      for (const auto& w : acc.wires) s += w->name() + "\n";
      EXPECT_EQ(fnv1a(s), pins[i]) << builds[i].name << std::hex << " 0x" << fnv1a(s);
    });
  }
}

// --- the builders instantiate core::elaborate's graph --------------------------

/// Every channel of `graph` is a built FIFO — between boards, a wire — with
/// the same name and capacity; every node a built process or, for a
/// filter-chain memory node (the case a name-set comparison cannot cover),
/// the name prefix of its chain's processes; and whatever else was built is
/// filter-chain internals.
void expect_realizes(const DesignGraph& graph, const std::vector<const SimContext*>& contexts,
                     const dfc::core::DesignInstance& built, const std::string& what) {
  std::map<std::string, std::size_t> fifos, wires;
  std::set<std::string> procs;
  for (const SimContext* ctx : contexts) {
    for (std::size_t i = 0; i < ctx->fifo_count(); ++i) {
      fifos.emplace(ctx->fifo(i).name(), ctx->fifo(i).capacity());
    }
    for (std::size_t i = 0; i < ctx->process_count(); ++i) procs.insert(ctx->process(i).name());
  }
  for (const auto& w : built.wires) {
    wires.emplace(w->name(), static_cast<std::size_t>(w->model().effective_credits()));
  }
  for (const auto& c : graph.channels) {
    auto& pool = graph.nodes[static_cast<std::size_t>(c.producer)].kind == NodeKind::kLinkTx
                     ? wires
                     : fifos;
    const auto it = pool.find(c.name);
    ASSERT_NE(it, pool.end()) << what << ": channel " << c.name << " was not built";
    EXPECT_EQ(it->second, c.capacity) << what << ": " << c.name;
    pool.erase(it);
  }
  EXPECT_TRUE(wires.empty()) << what;

  std::vector<std::string> chains;
  for (const auto& n : graph.nodes) {
    if (procs.erase(n.name) == 1) continue;
    EXPECT_EQ(n.kind, NodeKind::kMemory) << what << ": node " << n.name << " was not built";
    const std::string prefix = n.name + ".";
    EXPECT_TRUE(std::any_of(procs.begin(), procs.end(),
                            [&](const std::string& p) { return p.starts_with(prefix); }))
        << what << ": no chain processes under " << prefix;
    chains.push_back(prefix);
  }
  const auto in_chain = [&](const std::string& name) {
    return std::any_of(chains.begin(), chains.end(),
                       [&](const std::string& prefix) { return name.starts_with(prefix); });
  };
  for (const auto& p : procs) EXPECT_TRUE(in_chain(p)) << what << ": extra process " << p;
  for (const auto& f : fifos) EXPECT_TRUE(in_chain(f.first)) << what << ": extra FIFO " << f.first;
}

TEST(VerifyRealizationTest, BuildersInstantiateTheElaboratedGraph) {
  for (const CoveredBuild& b : covered_builds()) {
    build(b, [&](const auto& contexts, const dfc::core::DesignInstance& acc,
                 const DesignGraph& graph) { expect_realizes(graph, contexts, acc, b.name); });
  }
}

// --- spec rules: validate() and the verifier apply the same ones ---------------

/// validate() throws one VerifyError carrying `code`, and verify_design
/// reports it — instead of dividing by the field, or building with it.
void expect_rejected(const NetworkSpec& spec, Code code) {
  try {
    spec.validate();
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_TRUE(std::any_of(e.diagnostics().begin(), e.diagnostics().end(),
                            [code](const Diagnostic& d) { return d.code == code; }))
        << e.what();
  }
  EXPECT_TRUE(verify_design(spec).has(code));
}

TEST(VerifySpecRuleTest, ConvStrideMustBePositive) {
  for (const int stride : {0, -1}) {
    NetworkSpec spec = tiny_pipeline();
    std::get<ConvLayerSpec>(spec.layers[0]).stride = stride;
    expect_rejected(spec, Code::DF101);
  }
}

TEST(VerifySpecRuleTest, PoolStrideMustBePositive) {
  for (const int stride : {0, -2}) {
    NetworkSpec spec = tiny_pipeline();
    std::get<PoolLayerSpec>(spec.layers[1]).stride = stride;
    expect_rejected(spec, Code::DF101);
  }
}

TEST(VerifySpecRuleTest, AccumulatorCountMustBePositive) {
  for (const int accumulators : {0, -3}) {
    NetworkSpec spec = tiny_pipeline();
    std::get<FcnLayerSpec>(spec.layers[2]).num_accumulators = accumulators;
    expect_rejected(spec, Code::DF106);
  }
}

TEST(VerifySpecRuleTest, MultiplierLatencyMustBePositive) {
  for (const int cycles : {0, -1}) {
    NetworkSpec spec = tiny_pipeline();
    spec.latency.fmul = cycles;
    expect_rejected(spec, Code::DF106);
  }
}

TEST(VerifySpecRuleTest, AdderLatencyMustBePositive) {
  for (const int cycles : {0, -1}) {
    NetworkSpec spec = tiny_pipeline();
    spec.latency.fadd = cycles;
    expect_rejected(spec, Code::DF106);
  }
}

TEST(VerifySpecRuleTest, ActivationMustBeKnown) {
  NetworkSpec conv = tiny_pipeline();
  std::get<ConvLayerSpec>(conv.layers[0]).act = dfc::core::Activation{77};
  expect_rejected(conv, Code::DF106);
  NetworkSpec fcn = tiny_pipeline();
  std::get<FcnLayerSpec>(fcn.layers[2]).act = dfc::core::Activation{77};
  expect_rejected(fcn, Code::DF106);
}

}  // namespace
}  // namespace dfc::verify
