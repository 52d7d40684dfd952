// Tests for the observability layer: trace sink semantics, Perfetto export
// determinism (across runs and DFCNN_SWEEP_THREADS settings), stall
// attribution invariants (every core's buckets sum to the observed cycle
// count), per-FIFO empty-stall accounting and reset semantics, the metrics
// registry, the serve-side metrics wiring, and pins of every observation
// output (trace JSON, attribution table, pressure DOT, profile JSON).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "core/block_design.hpp"
#include "core/builder.hpp"
#include "core/harness.hpp"
#include "core/presets.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/sim_context.hpp"
#include "multifpga/exec.hpp"
#include "obs/activity.hpp"
#include "obs/analyze.hpp"
#include "obs/perfetto.hpp"
#include "obs/trace.hpp"
#include "report/experiments.hpp"
#include "report/profile.hpp"
#include "serve/load_generator.hpp"
#include "serve/server.hpp"

namespace dfc {
namespace {

using dfc::core::AcceleratorHarness;
using dfc::core::build_accelerator;
using dfc::core::make_usps_spec;

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

// --- TraceSink ----------------------------------------------------------------

TEST(TraceSinkTest, RegistersEntitiesWithDenseIds) {
  obs::TraceSink sink;
  EXPECT_EQ(sink.register_entity("a", obs::EntityKind::kFifo, 8), 0u);
  EXPECT_EQ(sink.register_entity("b", obs::EntityKind::kProcess), 1u);
  EXPECT_EQ(sink.entity(0).name, "a");
  EXPECT_EQ(sink.entity(0).capacity, 8u);
  EXPECT_EQ(sink.entity(1).kind, obs::EntityKind::kProcess);
}

TEST(TraceSinkTest, DropsNewestWhenFull) {
  obs::TraceSink sink(2);
  const auto id = sink.register_entity("f", obs::EntityKind::kFifo, 1);
  sink.record(id, obs::EventKind::kPush, 10, 1);
  sink.record(id, obs::EventKind::kPop, 11, 1);
  sink.record(id, obs::EventKind::kPush, 12, 2);  // over capacity: dropped
  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.dropped(), 1u);
  EXPECT_EQ(sink.events()[0].cycle, 10u);  // the prefix survives, not the tail
  EXPECT_EQ(sink.events()[1].cycle, 11u);

  sink.clear_events();
  EXPECT_TRUE(sink.events().empty());
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.entities().size(), 1u);  // registrations survive a clear
}

TEST(TraceSinkTest, AttachRequiresFreshSink) {
  auto acc = build_accelerator(make_usps_spec());
  obs::TraceSink used;
  used.register_entity("stale", obs::EntityKind::kFifo, 1);
  EXPECT_THROW(acc.ctx->attach_trace(&used), ConfigError);

  obs::TraceSink fresh;
  acc.ctx->attach_trace(&fresh);
  obs::TraceSink second;
  EXPECT_THROW(acc.ctx->attach_trace(&second), ConfigError);
  acc.ctx->attach_trace(nullptr);  // detach is fine and idempotent
  acc.ctx->attach_trace(nullptr);
}

TEST(TraceSinkTest, ObserveTakesOneFreshSink) {
  AcceleratorHarness harness(build_accelerator(make_usps_spec()));
  obs::TraceSink used;
  used.register_entity("stale", obs::EntityKind::kFifo, 1);
  EXPECT_THROW(harness.observe(&used), ConfigError);
  obs::TraceSink fresh;
  harness.observe(&fresh);
  obs::TraceSink second;
  EXPECT_THROW(harness.observe(&second), ConfigError);

  // A board already recording into a sink of its own refuses the call and
  // keeps running as before.
  AcceleratorHarness direct(build_accelerator(make_usps_spec()));
  obs::TraceSink own;
  direct.accelerator().ctx->attach_trace(&own);
  obs::TraceSink refused;
  EXPECT_THROW(direct.observe(&refused), ConfigError);
  EXPECT_TRUE(refused.entities().empty());
  EXPECT_TRUE(direct.run_batch(report::random_images(direct.spec(), 1)).ok());
  EXPECT_FALSE(own.events().empty());
  EXPECT_TRUE(refused.events().empty());
}

TEST(TraceSinkTest, ObservedTraceKeepsTheRecordedPrefixWhenFull) {
  // The harness records each board into a sink of its own and appends it to
  // the caller's after the run; a full sink must keep and drop exactly what
  // the context recording straight into it does.
  const auto images = report::random_images(make_usps_spec(), 2);
  obs::TraceSink direct(1000);
  AcceleratorHarness plain(build_accelerator(make_usps_spec()));
  plain.accelerator().ctx->attach_trace(&direct);
  plain.run_batch(images);
  plain.run_batch(images);

  obs::TraceSink observed(1000);
  AcceleratorHarness harness(build_accelerator(make_usps_spec()));
  harness.observe(&observed);
  harness.run_batch(images);
  harness.run_batch(images);

  EXPECT_GT(direct.dropped(), 0u);
  EXPECT_EQ(observed.dropped(), direct.dropped());
  EXPECT_EQ(obs::perfetto_trace_json(observed), obs::perfetto_trace_json(direct));
}

// --- trace determinism --------------------------------------------------------

std::string traced_usps_json(std::size_t batch) {
  obs::TraceSink sink;
  AcceleratorHarness harness(build_accelerator(make_usps_spec()));
  harness.accelerator().ctx->attach_trace(&sink);
  harness.run_batch(report::random_images(harness.spec(), batch));
  return obs::perfetto_trace_json(sink);
}

TEST(TraceExportTest, ByteIdenticalAcrossRunsAndThreadSettings) {
  std::string first;
  {
    ScopedSweepThreads threads("1");
    first = traced_usps_json(2);
  }
  std::string second;
  {
    ScopedSweepThreads threads("4");
    second = traced_usps_json(2);
  }
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(TraceExportTest, ProducesPerfettoShapedJson) {
  const std::string json = traced_usps_json(1);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // track metadata
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // activity slices
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // occupancy counters
  EXPECT_NE(json.find("L0.conv"), std::string::npos);
  EXPECT_NE(json.find("dma.in"), std::string::npos);
  EXPECT_NE(json.find("\"events_dropped\":0"), std::string::npos);
  // No wall-clock leakage: Perfetto timestamps are fabric cycles, so the
  // trailer must declare the unit.
  EXPECT_NE(json.find("fabric cycle"), std::string::npos);
}

TEST(TraceExportTest, ImageMarkersCoverTheBatch) {
  obs::TraceSink sink;
  AcceleratorHarness harness(build_accelerator(make_usps_spec()));
  harness.accelerator().ctx->attach_trace(&sink);
  harness.run_batch(report::random_images(harness.spec(), 3));
  std::size_t starts = 0;
  std::size_t dones = 0;
  for (const obs::TraceEvent& e : sink.events()) {
    starts += e.kind == obs::EventKind::kImageStart;
    dones += e.kind == obs::EventKind::kImageDone;
  }
  EXPECT_EQ(starts, 3u);
  EXPECT_EQ(dones, 3u);
}

// --- stall attribution --------------------------------------------------------

TEST(StallAttributionTest, BucketsSumToObservedCycles) {
  AcceleratorHarness harness(build_accelerator(make_usps_spec()));
  harness.observe();
  harness.run_batch(report::random_images(harness.spec(), 4));

  const std::uint64_t observed = harness.accelerator().ctx->observed_cycles();
  EXPECT_GT(observed, 0u);
  const auto rows = report::read_observation(harness.accelerator()).cores;
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    EXPECT_EQ(row.activity.total(), observed) << row.name;
  }
  // The first conv layer is the designed bottleneck: it must be the busiest.
  std::uint64_t conv0_working = 0;
  std::uint64_t max_working = 0;
  for (const auto& row : rows) {
    if (row.name == "L0.conv") conv0_working = row.activity.working;
    max_working = std::max(max_working, row.activity.working);
  }
  EXPECT_EQ(conv0_working, max_working);
}

TEST(StallAttributionTest, ObservationDoesNotChangeResults) {
  const auto images = report::random_images(make_usps_spec(), 2);
  AcceleratorHarness plain(build_accelerator(make_usps_spec()));
  const auto base = plain.run_batch(images);

  AcceleratorHarness observed(build_accelerator(make_usps_spec()));
  observed.accelerator().ctx->set_stall_accounting(true);
  const auto obs_result = observed.run_batch(images);

  EXPECT_EQ(base.total_cycles(), obs_result.total_cycles());
  EXPECT_EQ(base.completion_cycles, obs_result.completion_cycles);
  ASSERT_EQ(base.outputs.size(), obs_result.outputs.size());
  for (std::size_t i = 0; i < base.outputs.size(); ++i) {
    EXPECT_EQ(base.outputs[i], obs_result.outputs[i]) << "image " << i;
  }
}

TEST(StallAttributionTest, DisabledModeKeepsObservedCyclesAtZero) {
  AcceleratorHarness harness(build_accelerator(make_usps_spec()));
  harness.run_batch(report::random_images(harness.spec(), 1));
  EXPECT_FALSE(harness.accelerator().ctx->observing());
  EXPECT_EQ(harness.accelerator().ctx->observed_cycles(), 0u);
}

// --- FIFO empty-stall accounting ---------------------------------------------

TEST(FifoStallTest, EmptyStallCountsAndResetSemantics) {
  df::Fifo<int> f("f", 2);
  f.note_empty_stall();
  f.note_empty_stall();
  EXPECT_EQ(f.stats().empty_stall_cycles, 2u);
  EXPECT_EQ(f.lifetime_stats().empty_stall_cycles, 2u);

  f.reset_stats();  // per-measurement stats clear, lifetime survives
  EXPECT_EQ(f.stats().empty_stall_cycles, 0u);
  EXPECT_EQ(f.lifetime_stats().empty_stall_cycles, 2u);
}

TEST(FifoStallTest, StallAccountingPopulatesEmptyStalls) {
  AcceleratorHarness harness(build_accelerator(make_usps_spec()));
  harness.accelerator().ctx->set_stall_accounting(true);
  harness.run_batch(report::random_images(harness.spec(), 2));
  const auto& ctx = *harness.accelerator().ctx;
  std::uint64_t total_empty = 0;
  for (std::size_t i = 0; i < ctx.fifo_count(); ++i) {
    total_empty += ctx.fifo(i).lifetime_stats().empty_stall_cycles;
  }
  // Downstream stages starve while the bottleneck conv works, so some input
  // FIFO must have recorded empty-stall cycles.
  EXPECT_GT(total_empty, 0u);
}

// --- metrics registry ---------------------------------------------------------

TEST(MetricsTest, CounterGaugeHistogramBasics) {
  MetricsRegistry registry;
  Counter& c = registry.counter("c_total", "a counter");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&registry.counter("c_total", "ignored"), &c);  // get-or-create

  Gauge& g = registry.gauge("g", "a gauge");
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);

  Histogram& h = registry.histogram("h", "a histogram", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(100.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 105.5);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);  // two bounds + implicit +Inf
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
}

TEST(MetricsTest, TypeMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("x", "first");
  EXPECT_THROW(registry.gauge("x", "oops"), ConfigError);
  EXPECT_THROW(registry.histogram("x", "oops", {1.0}), ConfigError);
}

TEST(MetricsTest, HistogramRejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), ConfigError);
  EXPECT_THROW(Histogram({}), ConfigError);
}

TEST(MetricsTest, ExpositionIsCumulativeAndByteStable) {
  MetricsRegistry registry;
  registry.counter("req_total", "requests").inc(3);
  Histogram& h = registry.histogram("lat", "latency", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);

  const std::string text = registry.expose_text();
  EXPECT_NE(text.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(text.find("req_total 3"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"2\"} 2"), std::string::npos);  // cumulative
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_count 2"), std::string::npos);
  EXPECT_EQ(text, registry.expose_text());  // scraping is stable
}

TEST(MetricsTest, SnapshotFlattensHistograms) {
  MetricsRegistry registry;
  registry.counter("c", "counter").inc(2);
  registry.histogram("h", "histogram", {1.0}).observe(3.0);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 3u);  // c, h_count, h_sum
  EXPECT_EQ(snap[0].first, "c");
  EXPECT_DOUBLE_EQ(snap[0].second, 2.0);
  EXPECT_EQ(snap[1].first, "h_count");
  EXPECT_EQ(snap[2].first, "h_sum");
  EXPECT_DOUBLE_EQ(snap[2].second, 3.0);
}

// --- serve wiring -------------------------------------------------------------

serve::ServeReport run_served_scenario(MetricsRegistry* registry,
                                       std::uint64_t snapshot_cycles) {
  std::vector<serve::Request> requests;
  for (std::uint64_t i = 0; i < 16; ++i) {
    serve::Request r;
    r.id = i;
    r.arrival_cycle = 100 + i * 50;
    requests.push_back(r);
  }
  serve::ServeConfig config;
  config.replicas = 1;
  config.queue_capacity = 4;  // forces sheds under this burst
  config.batcher.max_batch_size = 4;
  config.batcher.max_wait_cycles = 0;
  config.metrics = registry;
  config.metrics_snapshot_cycles = snapshot_cycles;
  const std::vector<std::uint64_t> service_table{400, 500, 600, 700};
  return serve::plan_serving(requests, config, service_table);
}

TEST(ServeMetricsTest, RegistryMatchesReportedStats) {
  MetricsRegistry registry;
  const serve::ServeReport report = run_served_scenario(&registry, 0);

  EXPECT_EQ(registry.counter("serve_requests_admitted_total", "").value(),
            report.stats.offered_requests - report.stats.shed_requests);
  EXPECT_EQ(registry.counter("serve_requests_shed_total", "").value(),
            report.stats.shed_requests);
  EXPECT_EQ(registry.counter("serve_requests_completed_total", "").value(),
            report.stats.completed_requests);
  EXPECT_EQ(registry.counter("serve_batches_total", "").value(), report.stats.batches);
  EXPECT_EQ(registry.histogram("serve_batch_size", "", dfc::linear_buckets(1.0, 1.0, 4)).count(),
            report.stats.batches);
  EXPECT_EQ(report.metrics_csv, "");  // no snapshot period requested
}

TEST(ServeMetricsTest, SnapshotCsvIsCycleStampedAndDeterministic) {
  MetricsRegistry a;
  const serve::ServeReport ra = run_served_scenario(&a, 256);
  ASSERT_FALSE(ra.metrics_csv.empty());
  EXPECT_EQ(ra.metrics_csv.compare(0, 6, "cycle,"), 0);
  EXPECT_NE(ra.metrics_csv.find("serve_queue_depth"), std::string::npos);
  EXPECT_GT(std::count(ra.metrics_csv.begin(), ra.metrics_csv.end(), '\n'), 2);

  MetricsRegistry b;
  const serve::ServeReport rb = run_served_scenario(&b, 256);
  EXPECT_EQ(ra.metrics_csv, rb.metrics_csv);
  EXPECT_EQ(a.expose_text(), b.expose_text());
}

// --- Perfetto export golden file -----------------------------------------------

// A synthetic trace touching every entity kind and event family the exporter
// understands: FIFO occupancy + stalls, core states + image markers, serve
// spans (async queued/execute + shed marker), link states + credits. The
// exported JSON is byte-compared against a committed golden file, so any
// schema drift (field renames, pid regrouping, ordering changes) fails
// loudly. Regenerate deliberately with DFCNN_UPDATE_GOLDEN=1.
obs::TraceSink make_golden_sink() {
  obs::TraceSink sink;
  const auto fifo = sink.register_entity("q", obs::EntityKind::kFifo, 4);
  const auto core = sink.register_entity("core", obs::EntityKind::kProcess);
  const auto req = sink.register_entity("serve.requests", obs::EntityKind::kServe);
  const auto link = sink.register_entity("L.wire0", obs::EntityKind::kLink);

  sink.record(core, obs::EventKind::kImageStart, 0, 0);
  sink.record(core, obs::EventKind::kCoreState, 0,
              static_cast<std::uint32_t>(obs::CoreState::kWorking));
  sink.record(fifo, obs::EventKind::kPush, 1, 1);
  sink.record(link, obs::EventKind::kLinkCredits, 1, 4);
  sink.record(link, obs::EventKind::kLinkState, 1,
              static_cast<std::uint32_t>(obs::LinkState::kWireBusy));
  sink.record(req, obs::EventKind::kSpanBegin, 2,
              obs::span_value(obs::SpanPhase::kQueued, 7));
  sink.record(fifo, obs::EventKind::kPop, 3, 1);
  sink.record(link, obs::EventKind::kLinkCredits, 3, 2);
  sink.record(req, obs::EventKind::kSpanBegin, 4,
              obs::span_value(obs::SpanPhase::kShed, 8));
  sink.record(fifo, obs::EventKind::kFullStall, 5, 0);
  sink.record(core, obs::EventKind::kCoreState, 5,
              static_cast<std::uint32_t>(obs::CoreState::kStarved));
  sink.record(link, obs::EventKind::kLinkState, 5,
              static_cast<std::uint32_t>(obs::LinkState::kCreditStall));
  sink.record(req, obs::EventKind::kSpanEnd, 6,
              obs::span_value(obs::SpanPhase::kQueued, 7));
  sink.record(req, obs::EventKind::kSpanBegin, 6,
              obs::span_value(obs::SpanPhase::kExecute, 7));
  sink.record(fifo, obs::EventKind::kEmptyStall, 7, 0);
  sink.record(link, obs::EventKind::kLinkState, 8,
              static_cast<std::uint32_t>(obs::LinkState::kIdle));
  sink.record(req, obs::EventKind::kSpanEnd, 9,
              obs::span_value(obs::SpanPhase::kExecute, 7));
  sink.record(core, obs::EventKind::kImageDone, 9, 0);
  return sink;
}

TEST(TraceExportTest, MatchesCommittedGoldenFile) {
  const obs::TraceSink sink = make_golden_sink();
  const std::string actual = obs::perfetto_trace_json(sink);

  const std::filesystem::path golden_path =
      std::filesystem::path(__FILE__).parent_path() / "golden" / "perfetto_small.json";
  if (std::getenv("DFCNN_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << actual;
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (run once with DFCNN_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "Perfetto JSON schema drifted; if intentional, regenerate with "
         "DFCNN_UPDATE_GOLDEN=1";
}

TEST(TraceExportTest, GoldenSinkCoversServeAndLinkGroups) {
  const std::string json = obs::perfetto_trace_json(make_golden_sink());
  EXPECT_NE(json.find("\"serve\""), std::string::npos);
  EXPECT_NE(json.find("\"links\""), std::string::npos);
  EXPECT_NE(json.find("\"queued\""), std::string::npos);
  EXPECT_NE(json.find("\"execute\""), std::string::npos);
  EXPECT_NE(json.find("shed"), std::string::npos);
  EXPECT_NE(json.find("credits"), std::string::npos);
}

// --- bottleneck analyzer -------------------------------------------------------

obs::StageSample make_stage(const std::string& name, std::int64_t predicted,
                            std::uint64_t working, std::uint64_t observed) {
  obs::StageSample st;
  st.name = name;
  st.predicted_cycles = predicted;
  if (observed > 0) {
    st.has_activity = true;
    st.activity.working = working;
    st.activity.idle = observed - working;
    st.observed_cycles = observed;
  }
  return st;
}

TEST(AnalyzeTest, ComputeBoundStageWinsByObservedBusyCycles) {
  obs::AnalyzeInput in;
  in.design = "synthetic";
  in.batch = 10;
  in.predicted_interval = 100;
  in.observed_interval = 150;
  in.stages.push_back(make_stage("dma-in", 100, 0, 0));
  in.stages.push_back(make_stage("L0.conv", 100, 1500, 1600));  // 150 cy/img busy
  in.stages.push_back(make_stage("L1.pool", 50, 400, 1600));

  const obs::BottleneckReport rep = obs::analyze_bottleneck(in);
  ASSERT_FALSE(rep.ranking.empty());
  EXPECT_EQ(rep.ranking.front().name, "L0.conv");
  EXPECT_EQ(rep.ranking.front().score, 150);
  EXPECT_NE(rep.verdict.find("compute-bound at L0.conv"), std::string::npos);
}

TEST(AnalyzeTest, IngestWinsTiesAgainstEquallyPacedStages) {
  // dma-in and L0.conv both predict 100 cycles/image, but L0 is observed
  // below its prediction and idle-starved — the upstream endpoint is the
  // pace-setter and must outrank it on the tie.
  obs::AnalyzeInput in;
  in.design = "synthetic";
  in.batch = 10;
  in.shared_dma_bus = true;
  in.predicted_interval = 100;
  in.observed_interval = 110;
  in.stages.push_back(make_stage("dma-in", 100, 0, 0));
  in.stages.push_back(make_stage("L0.conv", 100, 900, 1100));

  const obs::BottleneckReport rep = obs::analyze_bottleneck(in);
  EXPECT_EQ(rep.ranking.front().kind, "ingest");
  EXPECT_NE(rep.verdict.find("ingest-bound via shared DMA bus (observed II 110 vs ideal 100)"),
            std::string::npos);
}

TEST(AnalyzeTest, SlowLinkProducesLinkBoundVerdict) {
  obs::AnalyzeInput in;
  in.design = "synthetic";
  in.batch = 10;
  in.devices = 2;
  in.predicted_interval = 100;
  in.observed_interval = 400;
  in.stages.push_back(make_stage("L0.conv", 100, 900, 4000));
  obs::LinkSample ln;
  ln.name = "L0.wire0";
  ln.gbps = 0.4;
  ln.predicted_cycles = 400;
  ln.activity.wire_busy = 3600;
  ln.activity.credit_stall = 200;
  ln.activity.idle = 200;
  ln.observed_cycles = 4000;
  in.links.push_back(ln);

  const obs::BottleneckReport rep = obs::analyze_bottleneck(in);
  EXPECT_EQ(rep.ranking.front().kind, "link");
  EXPECT_NE(rep.verdict.find("link-bound at 0.40 Gbps"), std::string::npos);
  EXPECT_NE(rep.verdict.find("wire_busy 90.0%"), std::string::npos);
}

TEST(AnalyzeTest, ReportRenderAndJsonAreDeterministic) {
  obs::AnalyzeInput in;
  in.design = "synthetic";
  in.batch = 4;
  in.predicted_interval = 10;
  in.observed_interval = 12;
  in.stages.push_back(make_stage("dma-in", 10, 0, 0));
  in.stages.push_back(make_stage("L0.conv", 10, 36, 48));
  in.fifos.push_back({"L0.win0", 4, 2, 5, 9});

  const obs::BottleneckReport a = obs::analyze_bottleneck(in);
  const obs::BottleneckReport b = obs::analyze_bottleneck(in);
  EXPECT_EQ(a.render(), b.render());
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_NE(a.to_json().find("\"verdict\""), std::string::npos);
  EXPECT_NE(a.to_json().find("\"fifo_pressure\""), std::string::npos);
  EXPECT_NE(a.render().find("fifo (most stalled)"), std::string::npos);
}

// --- end-to-end profiles -------------------------------------------------------

TEST(ProfileTest, UspsSharedBusIsIngestBoundAtTheDocumentedInterval) {
  const auto spec = core::make_usps_spec(3);
  report::ProfileOptions options;
  options.batch = 16;
  const obs::BottleneckReport rep = report::profile_design(spec, options);
  EXPECT_EQ(rep.input.predicted_interval, 256);
  EXPECT_EQ(rep.input.observed_interval, 266u);
  EXPECT_NE(rep.verdict.find("ingest-bound via shared DMA bus"), std::string::npos)
      << rep.verdict;
  ASSERT_FALSE(rep.ranking.empty());
  EXPECT_EQ(rep.ranking.front().kind, "ingest");
}

TEST(ProfileTest, TwoBoardsReachTheIdealInterval) {
  const auto spec = core::make_usps_spec(3);
  report::ProfileOptions options;
  options.batch = 16;
  options.devices = 2;
  const obs::BottleneckReport rep = report::profile_design(spec, options);
  EXPECT_EQ(rep.input.observed_interval, 256u);
  EXPECT_NE(rep.verdict.find("ingest-bound at the ideal 256-cycle interval"),
            std::string::npos)
      << rep.verdict;
  ASSERT_EQ(rep.input.links.size(), 1u);
  // The link split is exact: buckets partition the classified cycles.
  const obs::LinkSample& ln = rep.input.links.front();
  EXPECT_EQ(ln.activity.total(), ln.observed_cycles);
}

TEST(ProfileTest, SlowLinkFlipsTheVerdictToLinkBound) {
  const auto spec = core::make_usps_spec(3);
  report::ProfileOptions options;
  options.batch = 16;
  options.devices = 2;
  options.link_gbps = 0.4;
  const obs::BottleneckReport rep = report::profile_design(spec, options);
  EXPECT_NE(rep.verdict.find("link-bound at 0.40 Gbps"), std::string::npos) << rep.verdict;
  EXPECT_GT(rep.input.observed_interval, 256u);
}

TEST(ProfileTest, ReportIsByteIdenticalAcrossThreadSettings) {
  const auto spec = core::make_usps_spec(3);
  report::ProfileOptions options;
  options.batch = 8;
  options.devices = 2;
  std::string first;
  for (const char* threads : {"1", "4"}) {
    ScopedSweepThreads scoped(threads);
    const obs::BottleneckReport rep = report::profile_design(spec, options);
    const std::string json = rep.to_json();
    if (first.empty()) {
      first = json;
    } else {
      EXPECT_EQ(first, json);
    }
  }
  EXPECT_NE(first.find("\"links\""), std::string::npos);
}

// --- observation pins ----------------------------------------------------------
//
// FNV-1a 64 pins of what observing a design writes, computed while one board
// and several boards were still observed by separate code: the Perfetto JSON
// of `dfcnn trace <d> <batch> [--devices 2]`, the one-board per-core
// attribution table (`dfcnn trace usps 4`'s stdout, X3's CIFAR table), the
// FIFO-pressure DOT of `dfcnn dot <d> 8` (the committed usps-tc1.dot and
// cifar-tc2.dot) and `dfcnn profile`'s JSON.

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// `dfcnn trace`'s Perfetto JSON: `spec` on `devices` boards, 3.2 Gbps links.
std::string traced_json(const core::NetworkSpec& spec, std::size_t batch, std::size_t devices) {
  core::BuildOptions opts;
  opts.link = core::link_model_for_gbps(3.2);
  mfpga::MultiFpgaHarness harness(report::build_observed_design(spec, devices, opts));
  obs::TraceSink sink;
  harness.observe(&sink);
  EXPECT_TRUE(harness.run_batch(report::random_images(spec, batch)).ok());
  return obs::perfetto_trace_json(sink);
}

std::string attribution_table(const core::NetworkSpec& spec, std::size_t batch) {
  AcceleratorHarness harness(build_accelerator(spec));
  harness.observe();
  harness.run_batch(report::random_images(spec, batch));
  return report::format_core_activity(report::read_observation(harness.accelerator()));
}

std::string pressure_dot(const core::NetworkSpec& spec) {
  AcceleratorHarness harness(build_accelerator(spec));
  harness.observe();
  harness.run_batch(report::random_images(spec, 8));
  return core::block_design_dot(spec, harness.accelerator());
}

TEST(ObservationPinTest, TraceJsonMatchesPinnedHashes) {
  const std::string usps1 = traced_json(make_usps_spec(), 4, 1);
  EXPECT_EQ(fnv1a(usps1), 0x55f8260ad4cd0f60ULL) << std::hex << "0x" << fnv1a(usps1);
  const std::string usps2 = traced_json(make_usps_spec(), 4, 2);
  EXPECT_EQ(fnv1a(usps2), 0x71b8942e38661921ULL) << std::hex << "0x" << fnv1a(usps2);
  const std::string cifar1 = traced_json(core::make_cifar_spec(), 2, 1);
  EXPECT_EQ(fnv1a(cifar1), 0x200de53f07693dc1ULL) << std::hex << "0x" << fnv1a(cifar1);
}

TEST(ObservationPinTest, AttributionTablesMatchPinnedHashes) {
  const std::string usps = attribution_table(make_usps_spec(), 4);
  EXPECT_EQ(fnv1a(usps), 0xa985d2fb6bc31e2dULL) << std::hex << "0x" << fnv1a(usps);
  const std::string cifar = attribution_table(core::make_cifar_spec(), 16);
  EXPECT_EQ(fnv1a(cifar), 0x2652a97d16c39bf2ULL) << std::hex << "0x" << fnv1a(cifar);
}

TEST(ObservationPinTest, PressureDotMatchesPinnedHashes) {
  const std::string usps = pressure_dot(make_usps_spec());
  EXPECT_EQ(fnv1a(usps), 0x5bfec389e6e6498aULL) << std::hex << "0x" << fnv1a(usps);
  const std::string cifar = pressure_dot(core::make_cifar_spec());
  EXPECT_EQ(fnv1a(cifar), 0xe8e1a899e574a4dcULL) << std::hex << "0x" << fnv1a(cifar);
}

TEST(ObservationPinTest, ProfileJsonMatchesPinnedHashes) {
  struct Pin {
    core::NetworkSpec spec;
    std::size_t devices;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {make_usps_spec(), 1, 0x962d0941a4be6277ULL},
      {make_usps_spec(), 2, 0xc048edccc6058f15ULL},
      {core::make_alexnet_mini_spec(), 4, 0x1079c95473fa9d88ULL},
  };
  for (const Pin& pin : pins) {
    report::ProfileOptions options;
    options.devices = pin.devices;
    const std::string json = report::profile_design(pin.spec, options).to_json();
    EXPECT_EQ(fnv1a(json), pin.hash)
        << pin.spec.name << " on " << pin.devices << std::hex << ": 0x" << fnv1a(json);
  }
}

}  // namespace
}  // namespace dfc
