// Tests for the serving subsystem: bounded admission (shed, never block),
// dynamic batcher triggers (size and timeout), FIFO response ordering,
// replica-pool determinism across thread counts, output
// correctness against the single-image harness, the percentile helpers
// against a sorted reference, and pinned report bytes of an overloaded plan,
// a fault-mode plan and a plan whose whole pool dies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/service_table.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/presets.hpp"
#include "obs/trace.hpp"
#include "fault/fault_plan.hpp"
#include "serve/batcher.hpp"
#include "serve/load_generator.hpp"
#include "serve/server.hpp"

namespace dfc::serve {
namespace {

core::NetworkSpec usps_spec() { return core::make_usps_spec(3); }

Request make_request(std::uint64_t id, std::uint64_t arrival, std::size_t image = 0) {
  Request r;
  r.id = id;
  r.arrival_cycle = arrival;
  r.image_index = image;
  return r;
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

// --- percentile helpers --------------------------------------------------------

TEST(PercentileTest, EmptySampleYieldsZero) {
  EXPECT_EQ(percentile_nearest_rank({}, 99.0), 0u);
  const LatencyPercentiles p = latency_percentiles({});
  EXPECT_EQ(p.p50, 0u);
  EXPECT_EQ(p.p95, 0u);
  EXPECT_EQ(p.p99, 0u);
}

TEST(PercentileTest, SingleElementIsEveryPercentile) {
  EXPECT_EQ(percentile_nearest_rank({42}, 0.0), 42u);
  EXPECT_EQ(percentile_nearest_rank({42}, 50.0), 42u);
  EXPECT_EQ(percentile_nearest_rank({42}, 100.0), 42u);
  const LatencyPercentiles p = latency_percentiles({42});
  EXPECT_EQ(p.p50, 42u);
  EXPECT_EQ(p.p99, 42u);
}

TEST(PercentileTest, NearestRankOnKnownSample) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile_nearest_rank(v, 50.0), 50u);
  EXPECT_EQ(percentile_nearest_rank(v, 95.0), 95u);
  EXPECT_EQ(percentile_nearest_rank(v, 99.0), 99u);
  EXPECT_EQ(percentile_nearest_rank(v, 100.0), 100u);
  EXPECT_EQ(percentile_nearest_rank(v, 0.0), 1u);  // p0 clamps to the minimum
}

TEST(PercentileTest, TiesAndUnsortedInput) {
  // Sorted: 1 5 5 5 — p50 rank = ceil(0.5*4) = 2 -> 5.
  EXPECT_EQ(percentile_nearest_rank({5, 1, 5, 5}, 50.0), 5u);
  EXPECT_EQ(percentile_nearest_rank({5, 1, 5, 5}, 25.0), 1u);
  EXPECT_EQ(percentile_nearest_rank({7, 7, 7, 7}, 99.0), 7u);
}

TEST(PercentileTest, SelectionMatchesSortedNearestRank) {
  // Both helpers select instead of sorting; they must read exactly what the
  // sorted sample holds at each nearest rank. The reference rank is integer
  // arithmetic, ceil(n * tenths / 1000), independent of the floating-point
  // rank helper the two share.
  struct Quantile {
    const char* name;
    double pct;
    std::uint64_t tenths;
    std::uint64_t LatencyPercentiles::*field;
  };
  const Quantile quantiles[] = {{"p50", 50.0, 500, &LatencyPercentiles::p50},
                                {"p95", 95.0, 950, &LatencyPercentiles::p95},
                                {"p99", 99.0, 990, &LatencyPercentiles::p99},
                                {"p99.9", 99.9, 999, &LatencyPercentiles::p999}};
  Rng rng(2017);
  for (std::size_t n = 1; n <= 5000; ++n) {
    // Every fifth n gets each shape: heavy duplicates, all equal, sorted with
    // runs, reverse-sorted, and wide random values.
    std::vector<std::uint64_t> sample(n);
    for (std::size_t i = 0; i < n; ++i) {
      switch (n % 5) {
        case 1: sample[i] = 1000 + rng.next_below(8); break;
        case 2: sample[i] = 4242; break;
        case 3: sample[i] = i / 3; break;
        case 4: sample[i] = (n - i) * 7; break;
        default: sample[i] = rng.next_u64(); break;
      }
    }
    std::vector<std::uint64_t> sorted = sample;
    std::sort(sorted.begin(), sorted.end());
    const LatencyPercentiles p = latency_percentiles(sample);
    for (const Quantile& q : quantiles) {
      const std::uint64_t expected = sorted[(n * q.tenths + 999) / 1000 - 1];
      ASSERT_EQ(p.*q.field, expected) << "n=" << n << " " << q.name;
      ASSERT_EQ(percentile_nearest_rank(sample, q.pct), expected) << "n=" << n << " " << q.name;
    }
  }
}

// --- dynamic batcher -----------------------------------------------------------

TEST(BatcherTest, SizeTriggerClosesFullBatch) {
  DynamicBatcher b({4, 1000});
  EXPECT_FALSE(b.should_close(0, 0, 0));
  EXPECT_FALSE(b.should_close(3, 0, 10));
  EXPECT_TRUE(b.should_close(4, 0, 10));
  EXPECT_TRUE(b.should_close(9, 0, 10));
  EXPECT_EQ(b.take_count(9), 4u);
  EXPECT_EQ(b.take_count(3), 3u);
}

TEST(BatcherTest, TimeoutTriggerClosesPartialBatch) {
  DynamicBatcher b({4, 100});
  EXPECT_FALSE(b.should_close(1, 50, 149));
  EXPECT_TRUE(b.should_close(1, 50, 150));  // oldest aged max_wait
  EXPECT_EQ(b.close_deadline(50), 150u);
}

TEST(BatcherTest, ZeroWaitDispatchesImmediately) {
  DynamicBatcher b({8, 0});
  EXPECT_TRUE(b.should_close(1, 123, 123));
}

TEST(BatcherTest, DeadlineSaturatesInsteadOfWrapping) {
  DynamicBatcher b({4, ~std::uint64_t{0}});
  EXPECT_EQ(b.close_deadline(10), DynamicBatcher::kNever);
}

TEST(BatcherTest, DeadlineSaturatesForLateArrivalsToo) {
  // Regression: a moderate max_wait must also saturate when the *arrival*
  // cycle sits near UINT64_MAX — a wrapped deadline would read as "the
  // timeout fired aeons ago" and close every batch instantly.
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  DynamicBatcher b({4, 100});
  EXPECT_EQ(b.close_deadline(kMax - 50), DynamicBatcher::kNever);
  EXPECT_EQ(b.close_deadline(kMax), DynamicBatcher::kNever);
  EXPECT_FALSE(b.should_close(1, kMax - 50, kMax - 40));  // would wrap to ~49
  EXPECT_FALSE(b.should_close(1, kMax - 50, kMax - 1));  // open for every now < kNever
  // The exact-fit deadline (no wrap) still closes normally.
  EXPECT_EQ(b.close_deadline(kMax - 100), kMax);
  EXPECT_TRUE(b.should_close(1, kMax - 100, kMax));
}

// --- load generator ------------------------------------------------------------

TEST(LoadGeneratorTest, DeterministicSortedAndSeedSensitive) {
  const core::NetworkSpec spec = usps_spec();
  LoadSpec ls;
  ls.rate_images_per_second = 50000.0;
  ls.request_count = 200;
  ls.seed = 11;
  const Load a = generate_load(spec, ls);
  const Load b = generate_load(spec, ls);
  ASSERT_EQ(a.requests.size(), 200u);
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].id, i);
    EXPECT_EQ(a.requests[i].arrival_cycle, b.requests[i].arrival_cycle);
    EXPECT_EQ(a.requests[i].image_index, b.requests[i].image_index);
    if (i > 0) {
      EXPECT_GE(a.requests[i].arrival_cycle, a.requests[i - 1].arrival_cycle);
    }
  }
  ls.seed = 12;
  const Load c = generate_load(spec, ls);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    any_differs |= a.requests[i].arrival_cycle != c.requests[i].arrival_cycle;
  }
  EXPECT_TRUE(any_differs);
}

TEST(LoadGeneratorTest, UniformArrivalsMatchTheRate) {
  const core::NetworkSpec spec = usps_spec();
  LoadSpec ls;
  ls.arrivals = ArrivalProcess::kUniform;
  ls.rate_images_per_second = 100000.0;  // 1000-cycle gap at 100 MHz
  ls.request_count = 10;
  const Load l = generate_load(spec, ls);
  for (std::size_t i = 0; i < l.requests.size(); ++i) {
    EXPECT_EQ(l.requests[i].arrival_cycle, i * 1000);
  }
}

TEST(LoadGeneratorTest, DiurnalModulatesTheRateAcrossThePeriod) {
  const core::NetworkSpec spec = usps_spec();
  LoadSpec ls;
  ls.arrivals = ArrivalProcess::kDiurnal;
  ls.rate_images_per_second = 1'000'000.0;  // mean gap 100 cycles
  ls.request_count = 3000;
  ls.diurnal_amplitude = 0.8;
  ls.diurnal_period_cycles = 200'000;
  const Load a = generate_load(spec, ls);
  const Load b = generate_load(spec, ls);
  ASSERT_EQ(a.requests.size(), 3000u);
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].arrival_cycle, b.requests[i].arrival_cycle);  // seeded
  }
  // Arrivals inside the first full period: sin > 0 over the first half
  // (elevated rate), sin < 0 over the second (depressed), so the peak half
  // must collect clearly more arrivals than the trough half.
  std::size_t peak = 0, trough = 0;
  for (const Request& r : a.requests) {
    const std::uint64_t phase = r.arrival_cycle % ls.diurnal_period_cycles;
    if (r.arrival_cycle >= ls.diurnal_period_cycles) continue;
    (phase < ls.diurnal_period_cycles / 2 ? peak : trough) += 1;
  }
  ASSERT_GT(peak + trough, 1000u);
  EXPECT_GT(peak, trough * 2);
}

TEST(LoadGeneratorTest, BurstyAlternatesBurstsAndGapsAtTheConfiguredRate) {
  const core::NetworkSpec spec = usps_spec();
  LoadSpec ls;
  ls.arrivals = ArrivalProcess::kBursty;
  ls.rate_images_per_second = 1'000'000.0;  // long-run mean gap 100 cycles
  ls.request_count = 4000;
  ls.burst_on_mean_cycles = 10'000;
  ls.burst_off_mean_cycles = 40'000;
  const Load a = generate_load(spec, ls);
  const Load b = generate_load(spec, ls);
  ASSERT_EQ(a.requests.size(), 4000u);
  EXPECT_EQ(a.requests.back().arrival_cycle, b.requests.back().arrival_cycle);

  // ON dwells run at 5x the mean rate (gap ~20 cycles); OFF dwells are
  // silent. Expect many short intra-burst gaps AND some OFF-sized holes.
  std::size_t short_gaps = 0, holes = 0;
  for (std::size_t i = 1; i < a.requests.size(); ++i) {
    const std::uint64_t gap = a.requests[i].arrival_cycle - a.requests[i - 1].arrival_cycle;
    if (gap < 100) short_gaps += 1;
    if (gap > 10'000) holes += 1;
  }
  EXPECT_GT(short_gaps, a.requests.size() / 2);
  EXPECT_GE(holes, 4u);
  // The long-run offered rate still matches the spec (within ~40%).
  const double mean_gap = static_cast<double>(a.requests.back().arrival_cycle) / 3999.0;
  EXPECT_GT(mean_gap, 60.0);
  EXPECT_LT(mean_gap, 140.0);
}

TEST(LoadGeneratorTest, TraceReplayIsExact) {
  const core::NetworkSpec spec = usps_spec();
  LoadSpec ls;
  ls.arrivals = ArrivalProcess::kTrace;
  ls.request_count = 3;  // ignored: the trace is the truth
  ls.trace_arrival_cycles = {0, 17, 17, 400, 100'000};
  const Load l = generate_load(spec, ls);
  ASSERT_EQ(l.requests.size(), 5u);
  for (std::size_t i = 0; i < l.requests.size(); ++i) {
    EXPECT_EQ(l.requests[i].id, i);
    EXPECT_EQ(l.requests[i].arrival_cycle, ls.trace_arrival_cycles[i]);
  }
}

TEST(LoadGeneratorTest, RejectsBadShapeParameters) {
  const core::NetworkSpec spec = usps_spec();
  LoadSpec diurnal;
  diurnal.arrivals = ArrivalProcess::kDiurnal;
  diurnal.diurnal_amplitude = 1.0;  // must be in [0, 1)
  EXPECT_THROW(generate_load(spec, diurnal), ConfigError);

  LoadSpec bursty;
  bursty.arrivals = ArrivalProcess::kBursty;
  bursty.burst_on_mean_cycles = 0;
  EXPECT_THROW(generate_load(spec, bursty), ConfigError);

  LoadSpec empty_trace;
  empty_trace.arrivals = ArrivalProcess::kTrace;
  EXPECT_THROW(generate_load(spec, empty_trace), ConfigError);

  LoadSpec unsorted;
  unsorted.arrivals = ArrivalProcess::kTrace;
  unsorted.trace_arrival_cycles = {50, 20};
  EXPECT_THROW(generate_load(spec, unsorted), ConfigError);
}

TEST(LoadGeneratorTest, ShapeNamesRoundTrip) {
  EXPECT_STREQ(arrival_process_name(ArrivalProcess::kPoisson), "poisson");
  EXPECT_STREQ(arrival_process_name(ArrivalProcess::kUniform), "uniform");
  EXPECT_STREQ(arrival_process_name(ArrivalProcess::kDiurnal), "diurnal");
  EXPECT_STREQ(arrival_process_name(ArrivalProcess::kBursty), "bursty");
  EXPECT_STREQ(arrival_process_name(ArrivalProcess::kTrace), "trace");
}

// --- plan_serving: triggers, FIFO, shedding ------------------------------------

// A synthetic service table keeps these tests independent of the simulator:
// a size-n batch takes 100 + 10n cycles.
std::vector<std::uint64_t> synthetic_table(std::size_t max_batch) {
  std::vector<std::uint64_t> t;
  for (std::size_t n = 1; n <= max_batch; ++n) t.push_back(100 + 10 * n);
  return t;
}

ServeConfig basic_config(std::size_t max_batch, std::uint64_t max_wait,
                         std::size_t replicas = 1, std::size_t queue_capacity = 64) {
  ServeConfig c;
  c.replicas = replicas;
  c.queue_capacity = queue_capacity;
  c.batcher.max_batch_size = max_batch;
  c.batcher.max_wait_cycles = max_wait;
  return c;
}

TEST(PlanServingTest, SizeTriggerFormsFullBatchesUnderBacklog) {
  // 16 requests all at cycle 0: four full batches of 4 on one replica.
  std::vector<Request> reqs;
  for (std::uint64_t i = 0; i < 16; ++i) reqs.push_back(make_request(i, 0));
  const auto report = plan_serving(reqs, basic_config(4, 1'000'000), synthetic_table(4));

  ASSERT_EQ(report.batch_records.size(), 4u);
  for (const BatchRecord& b : report.batch_records) {
    EXPECT_EQ(b.size(), 4u);
    EXPECT_EQ(b.service_cycles(), 140u);
  }
  // Back-to-back on the single replica.
  EXPECT_EQ(report.batch_records[0].dispatch_cycle, 0u);
  EXPECT_EQ(report.batch_records[1].dispatch_cycle, 140u);
  EXPECT_EQ(report.stats.completed_requests, 16u);
  EXPECT_EQ(report.stats.shed_requests, 0u);
  EXPECT_DOUBLE_EQ(report.stats.mean_batch_size, 4.0);
}

TEST(PlanServingTest, TimeoutTriggerClosesPartialBatches) {
  // Sparse arrivals (10000 cycles apart) against max_wait 500: every request
  // dispatches alone, exactly max_wait after it arrived.
  std::vector<Request> reqs;
  for (std::uint64_t i = 0; i < 5; ++i) reqs.push_back(make_request(i, i * 10000));
  const auto report = plan_serving(reqs, basic_config(8, 500), synthetic_table(8));

  ASSERT_EQ(report.batch_records.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(report.batch_records[i].size(), 1u);
    EXPECT_EQ(report.batch_records[i].dispatch_cycle, i * 10000 + 500);
    EXPECT_EQ(report.outcomes[i].latency_cycles(), 500u + 110u);
  }
}

TEST(PlanServingTest, FifoOrderingOfResponses) {
  // Poisson load over two replicas: dispatch must follow arrival (id) order
  // globally — batch b's ids continue exactly where batch b-1 stopped.
  const core::NetworkSpec spec = usps_spec();
  LoadSpec ls;
  ls.rate_images_per_second = 400000.0;
  ls.request_count = 300;
  const Load load = generate_load(spec, ls);
  const auto report = plan_serving(load.requests, basic_config(8, 2000, 2), synthetic_table(8));

  std::vector<std::uint64_t> dispatched;
  for (const BatchRecord& b : report.batch_records) {
    for (const std::uint64_t id : b.request_ids) dispatched.push_back(id);
  }
  ASSERT_EQ(dispatched.size(), 300u);
  for (std::size_t i = 0; i < dispatched.size(); ++i) {
    EXPECT_EQ(dispatched[i], i) << "response order diverged from arrival order";
  }
  for (const RequestOutcome& o : report.outcomes) {
    EXPECT_FALSE(o.shed);
    EXPECT_GE(o.dispatch_cycle, o.arrival_cycle);
    EXPECT_GT(o.completion_cycle, o.dispatch_cycle);
  }
}

TEST(PlanServingTest, OverloadShedsInsteadOfBlocking) {
  // 100 simultaneous arrivals into a 4-deep queue with one slow replica:
  // 4 served, 96 shed, and the plan still terminates (nothing blocks).
  std::vector<Request> reqs;
  for (std::uint64_t i = 0; i < 100; ++i) reqs.push_back(make_request(i, 0));
  const auto report = plan_serving(reqs, basic_config(4, 1000, 1, 4), synthetic_table(4));

  EXPECT_EQ(report.stats.completed_requests, 4u);
  EXPECT_EQ(report.stats.shed_requests, 96u);
  EXPECT_EQ(report.stats.completed_requests + report.stats.shed_requests, 100u);
  EXPECT_EQ(report.stats.max_queue_depth, 4u);
  // The accepted requests are the oldest ones (FIFO admission).
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_FALSE(report.outcomes[i].shed);
  for (std::uint64_t i = 4; i < 100; ++i) EXPECT_TRUE(report.outcomes[i].shed);
}

TEST(PlanServingTest, LateArrivalJoinsBatchClosingThatCycle) {
  // Request 1 arrives exactly when request 0's timeout fires: same-cycle
  // arrivals are admitted before dispatch, so both ride one batch.
  std::vector<Request> reqs = {make_request(0, 0), make_request(1, 500)};
  const auto report = plan_serving(reqs, basic_config(8, 500), synthetic_table(8));
  ASSERT_EQ(report.batch_records.size(), 1u);
  EXPECT_EQ(report.batch_records[0].size(), 2u);
  EXPECT_EQ(report.batch_records[0].dispatch_cycle, 500u);
}

// FNV-1a 64; integers go in as 8 little-endian bytes.
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

TEST(ReplicaPoolTest, UnfinishedServiceMeasurementThrowsSimError) {
  // A billion-cycle adder cannot finish inside the default budget: the
  // replica's service table must not price the partial run.
  core::NetworkSpec spec = core::make_usps_spec();
  spec.latency.fadd = 1'000'000'000;
  EXPECT_THROW(cluster::measure_service_table(spec, 1, 2), SimError);
}

/// The USPS preset's measured service table for batch sizes 1..16.
std::vector<std::uint64_t> usps_service_table() {
  return cluster::measure_service_table(core::make_usps_spec(), 1, 16);
}

/// Requests per second that keep `replicas` replicas at `load` times their
/// batch-16 capacity.
double batch16_rate(const std::vector<std::uint64_t>& table, double load, double replicas) {
  return load * replicas * 16.0 / core::cycles_to_seconds(static_cast<double>(table[15]));
}

/// FNV-1a over every byte a plan reports: the outcomes, the batch records
/// (when `with_batches`), the scorecard, the metrics CSV and the spans.
std::uint64_t plan_hash(const ServeReport& report, const obs::TraceSink& sink,
                        bool with_batches) {
  Fnv1a h;
  for (const RequestOutcome& o : report.outcomes) {
    for (const std::uint64_t v : {o.id, o.arrival_cycle, o.dispatch_cycle, o.completion_cycle,
                                  std::uint64_t{o.batch_id}, std::uint64_t{o.replica},
                                  std::uint64_t{o.retries}, std::uint64_t{o.shed},
                                  std::uint64_t{o.failed}}) {
      h.add(v);
    }
  }
  if (with_batches) {
    for (const BatchRecord& b : report.batch_records) {
      for (const std::uint64_t v : {std::uint64_t{b.id}, std::uint64_t{b.replica},
                                    b.dispatch_cycle, b.completion_cycle,
                                    std::uint64_t{b.failed}, std::uint64_t{b.corrupted}}) {
        h.add(v);
      }
      for (const std::uint64_t id : b.request_ids) h.add(id);
    }
  }
  h.add(report.stats.render());
  h.add(report.metrics_csv);
  for (const obs::TraceEvent& ev : sink.events()) {
    for (const std::uint64_t v : {ev.cycle, std::uint64_t{ev.entity},
                                  static_cast<std::uint64_t>(ev.kind), std::uint64_t{ev.value}}) {
      h.add(v);
    }
  }
  return h.value();
}

TEST(PlanServingTest, OverloadPlanMatchesPinnedHash) {
  // USPS on two replicas at 1.2x their batch-16 capacity, with metric
  // snapshots and request spans on. The pin covers every byte the planner
  // reports (outcomes, scorecard, metrics CSV, spans), as computed by the
  // planner before its outcome records were packed.
  const core::NetworkSpec spec = core::make_usps_spec();
  const std::vector<std::uint64_t> table = usps_service_table();

  ServeConfig config = basic_config(16, 4096, 2);
  MetricsRegistry registry;
  config.metrics = &registry;
  config.metrics_snapshot_cycles = 250'000;
  obs::TraceSink sink;
  config.trace = &sink;
  LoadSpec ls;
  ls.rate_images_per_second = batch16_rate(table, 1.2, 2.0);
  ls.request_count = 20'000;
  ls.seed = 5;
  const ServeReport report = plan_serving(generate_load(spec, ls).requests, config, table);
  ASSERT_GT(report.stats.shed_requests, 0u);
  ASSERT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(plan_hash(report, sink, false), 0xade2abde4603f15eULL);
}

TEST(PlanServingTest, FaultPlanMatchesPinnedHash) {
  // USPS on three replicas at their batch-16 capacity under the default
  // recovery policy: replica 0 corrupts one batch, replica 2 corrupts two
  // and is quarantined, replica 1 is killed mid-run, and the lone survivor
  // then sheds and fails retries. Metric snapshots and spans are on.
  const core::NetworkSpec spec = core::make_usps_spec();
  const std::vector<std::uint64_t> table = usps_service_table();

  ServeConfig config = basic_config(16, 4096, 3);
  MetricsRegistry registry;
  config.metrics = &registry;
  config.metrics_snapshot_cycles = 250'000;
  obs::TraceSink sink;
  config.trace = &sink;
  fault::FaultPlan plan;
  plan.replica_kills.push_back({1, 900'000});
  plan.batch_corruptions.push_back({0, 40});
  plan.batch_corruptions.push_back({2, 100});
  plan.batch_corruptions.push_back({2, 150});
  config.faults = &plan;
  LoadSpec ls;
  ls.rate_images_per_second = batch16_rate(table, 1.0, 3.0);
  ls.request_count = 20'000;
  ls.seed = 9;
  const ServeReport report = plan_serving(generate_load(spec, ls).requests, config, table);
  const ServeStats& s = report.stats;
  EXPECT_EQ(s.quarantined_replicas, 2u);
  EXPECT_EQ(s.failed_batches, 1u);
  EXPECT_EQ(s.corrupted_batches, 3u);
  EXPECT_GT(s.retried_requests, 0u);
  EXPECT_GT(s.failed_requests, 0u);
  EXPECT_GT(s.shed_requests, 0u);
  EXPECT_EQ(s.completed_requests + s.shed_requests + s.failed_requests, s.offered_requests);
  ASSERT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(plan_hash(report, sink, true), 0x99506ac712fafed4ULL);
}

TEST(PlanServingTest, PoolDeathPlanMatchesPinnedHash) {
  // Both replicas die while requests keep arriving: the queue fills and
  // sheds, and once nothing can ever complete the planner drains the queue,
  // the retry backlog and the remaining arrivals as failed.
  const core::NetworkSpec spec = core::make_usps_spec();
  const std::vector<std::uint64_t> table = usps_service_table();

  ServeConfig config = basic_config(16, 4096, 2);
  MetricsRegistry registry;
  config.metrics = &registry;
  config.metrics_snapshot_cycles = 100'000;
  obs::TraceSink sink;
  config.trace = &sink;
  fault::FaultPlan plan;
  plan.replica_kills.push_back({0, 300'000});
  plan.replica_kills.push_back({1, 500'000});
  config.faults = &plan;
  LoadSpec ls;
  ls.rate_images_per_second = batch16_rate(table, 0.8, 2.0);
  ls.request_count = 5'000;
  ls.seed = 13;
  const ServeReport report = plan_serving(generate_load(spec, ls).requests, config, table);
  const ServeStats& s = report.stats;
  EXPECT_EQ(s.quarantined_replicas, 2u);
  EXPECT_GT(s.failed_requests, 0u);
  EXPECT_GT(s.shed_requests, 0u);
  EXPECT_EQ(s.completed_requests + s.shed_requests + s.failed_requests, s.offered_requests);
  EXPECT_LE(report.batch_records.back().completion_cycle, 500'000u);
  ASSERT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(plan_hash(report, sink, true), 0x7caf830e785f85b7ULL);
}

// --- plan_serving: fault recovery ----------------------------------------------

TEST(FaultRecoveryTest, ReplicaKillRetriesOnSurvivorAndQuarantines) {
  // Two replicas, eight simultaneous requests: batch {0..3} dispatches on
  // replica 0, batch {4..7} on replica 1. Killing replica 0 at cycle 50 fails
  // the first batch mid-service; its requests retry after the backoff and
  // complete on the surviving replica.
  std::vector<Request> reqs;
  for (std::uint64_t i = 0; i < 8; ++i) reqs.push_back(make_request(i, 0));
  ServeConfig config = basic_config(4, 1'000'000, 2);
  fault::FaultPlan plan;
  plan.replica_kills.push_back({0, 50});
  config.faults = &plan;
  const auto report = plan_serving(reqs, config, synthetic_table(4));

  EXPECT_EQ(report.stats.failed_batches, 1u);
  EXPECT_EQ(report.stats.quarantined_replicas, 1u);
  EXPECT_EQ(report.stats.retried_requests, 4u);
  EXPECT_EQ(report.stats.retry_attempts, 4u);
  EXPECT_EQ(report.stats.completed_requests, 8u);
  EXPECT_EQ(report.stats.failed_requests, 0u);

  const BatchRecord& killed = report.batch_records.at(0);
  EXPECT_TRUE(killed.failed);
  EXPECT_EQ(killed.replica, 0u);
  EXPECT_EQ(killed.completion_cycle, 50u);  // died at the kill, not on schedule
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(report.outcomes[i].retries, 1u);
    EXPECT_FALSE(report.outcomes[i].failed);
    // Retry re-enters the queue after the backoff, then queues behind the
    // survivor's in-flight batch.
    EXPECT_GE(report.outcomes[i].completion_cycle, 50u + config.recovery.backoff_cycles);
  }
  // Every post-kill batch lands on the surviving replica.
  for (std::size_t b = 1; b < report.batch_records.size(); ++b) {
    EXPECT_EQ(report.batch_records[b].replica, 1u);
  }
}

TEST(FaultRecoveryTest, CorruptedBatchIsRetriedWithoutQuarantine) {
  // Detection rejects the first batch's outputs after it completes on time;
  // one corruption stays below the quarantine threshold, so the same replica
  // serves the retry.
  std::vector<Request> reqs;
  for (std::uint64_t i = 0; i < 4; ++i) reqs.push_back(make_request(i, 0));
  ServeConfig config = basic_config(4, 1'000'000, 1);
  fault::FaultPlan plan;
  plan.batch_corruptions.push_back({0, 0});
  config.faults = &plan;
  const auto report = plan_serving(reqs, config, synthetic_table(4));

  EXPECT_EQ(report.stats.corrupted_batches, 1u);
  EXPECT_EQ(report.stats.failed_batches, 0u);
  EXPECT_EQ(report.stats.quarantined_replicas, 0u);
  EXPECT_EQ(report.stats.retried_requests, 4u);
  EXPECT_EQ(report.stats.completed_requests, 4u);
  EXPECT_EQ(report.stats.failed_requests, 0u);
  ASSERT_EQ(report.batch_records.size(), 2u);
  EXPECT_TRUE(report.batch_records[0].corrupted);
  EXPECT_FALSE(report.batch_records[1].corrupted);
  // Verdict lands at completion (140), retry after the backoff, full service.
  EXPECT_EQ(report.outcomes[0].completion_cycle,
            140u + config.recovery.backoff_cycles + 140u);
}

TEST(FaultRecoveryTest, RepeatedCorruptionQuarantinesTheReplica) {
  // Replica 0 corrupts its first two batches: the second corruption trips
  // quarantine_after_corruptions = 2 and the pool degrades to replica 1.
  std::vector<Request> reqs;
  for (std::uint64_t i = 0; i < 8; ++i) reqs.push_back(make_request(i, 0));
  ServeConfig config = basic_config(4, 1'000'000, 2);
  fault::FaultPlan plan;
  plan.batch_corruptions.push_back({0, 0});
  plan.batch_corruptions.push_back({0, 1});
  config.faults = &plan;
  const auto report = plan_serving(reqs, config, synthetic_table(4));

  EXPECT_EQ(report.stats.corrupted_batches, 2u);
  EXPECT_EQ(report.stats.quarantined_replicas, 1u);
  EXPECT_EQ(report.stats.completed_requests, 8u);
  EXPECT_EQ(report.stats.failed_requests, 0u);
}

TEST(FaultRecoveryTest, ExhaustedRetryBudgetFailsTheRequests) {
  // max_retries = 0: the corrupted batch's requests fail terminally instead
  // of re-enqueueing.
  std::vector<Request> reqs;
  for (std::uint64_t i = 0; i < 4; ++i) reqs.push_back(make_request(i, 0));
  ServeConfig config = basic_config(4, 1'000'000, 1);
  config.recovery.max_retries = 0;
  fault::FaultPlan plan;
  plan.batch_corruptions.push_back({0, 0});
  config.faults = &plan;
  const auto report = plan_serving(reqs, config, synthetic_table(4));

  EXPECT_EQ(report.stats.corrupted_batches, 1u);
  EXPECT_EQ(report.stats.retry_attempts, 0u);
  EXPECT_EQ(report.stats.failed_requests, 4u);
  EXPECT_EQ(report.stats.completed_requests, 0u);
  for (const RequestOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.failed);
    EXPECT_FALSE(o.shed);
  }
}

TEST(FaultRecoveryTest, TotalPoolDeathDrainsGracefully) {
  // The only replica dies mid-batch: retries have nowhere to go, so the plan
  // drains everything as failed instead of spinning forever.
  std::vector<Request> reqs;
  for (std::uint64_t i = 0; i < 8; ++i) reqs.push_back(make_request(i, 0));
  ServeConfig config = basic_config(4, 1'000'000, 1);
  fault::FaultPlan plan;
  plan.replica_kills.push_back({0, 50});
  config.faults = &plan;
  const auto report = plan_serving(reqs, config, synthetic_table(4));

  EXPECT_EQ(report.stats.quarantined_replicas, 1u);
  EXPECT_EQ(report.stats.completed_requests, 0u);
  EXPECT_EQ(report.stats.failed_requests, 8u);
  for (const RequestOutcome& o : report.outcomes) EXPECT_TRUE(o.failed);
}

TEST(FaultRecoveryTest, EmptyPlanMatchesTheFaultFreePath) {
  // A present-but-empty plan must not perturb the planner: byte-identical
  // schedule and stats against config.faults == nullptr.
  std::vector<Request> reqs;
  for (std::uint64_t i = 0; i < 16; ++i) reqs.push_back(make_request(i, i * 37));
  const auto baseline = plan_serving(reqs, basic_config(4, 500, 2), synthetic_table(4));

  ServeConfig config = basic_config(4, 500, 2);
  fault::FaultPlan plan;
  config.faults = &plan;
  const auto with_plan = plan_serving(reqs, config, synthetic_table(4));

  ASSERT_EQ(baseline.batch_records.size(), with_plan.batch_records.size());
  for (std::size_t i = 0; i < baseline.batch_records.size(); ++i) {
    EXPECT_EQ(baseline.batch_records[i].dispatch_cycle, with_plan.batch_records[i].dispatch_cycle);
    EXPECT_EQ(baseline.batch_records[i].completion_cycle,
              with_plan.batch_records[i].completion_cycle);
    EXPECT_EQ(baseline.batch_records[i].request_ids, with_plan.batch_records[i].request_ids);
  }
  EXPECT_EQ(baseline.stats.completed_requests, with_plan.stats.completed_requests);
  EXPECT_EQ(with_plan.stats.retry_attempts, 0u);
  EXPECT_EQ(with_plan.stats.quarantined_replicas, 0u);
}

// --- end-to-end server: determinism and output correctness ---------------------

void expect_same_report(const ServeReport& a, const ServeReport& b) {
  EXPECT_EQ(a.stats.completed_requests, b.stats.completed_requests);
  EXPECT_EQ(a.stats.shed_requests, b.stats.shed_requests);
  EXPECT_EQ(a.stats.batches, b.stats.batches);
  EXPECT_EQ(a.stats.max_queue_depth, b.stats.max_queue_depth);
  EXPECT_DOUBLE_EQ(a.stats.mean_queue_depth, b.stats.mean_queue_depth);
  EXPECT_EQ(a.stats.p50_latency_cycles, b.stats.p50_latency_cycles);
  EXPECT_EQ(a.stats.p95_latency_cycles, b.stats.p95_latency_cycles);
  EXPECT_EQ(a.stats.p99_latency_cycles, b.stats.p99_latency_cycles);
  EXPECT_EQ(a.stats.makespan_cycles, b.stats.makespan_cycles);
  ASSERT_EQ(a.batch_records.size(), b.batch_records.size());
  for (std::size_t i = 0; i < a.batch_records.size(); ++i) {
    EXPECT_EQ(a.batch_records[i].replica, b.batch_records[i].replica);
    EXPECT_EQ(a.batch_records[i].dispatch_cycle, b.batch_records[i].dispatch_cycle);
    EXPECT_EQ(a.batch_records[i].completion_cycle, b.batch_records[i].completion_cycle);
    EXPECT_EQ(a.batch_records[i].request_ids, b.batch_records[i].request_ids);
  }
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].shed, b.outcomes[i].shed);
    EXPECT_EQ(a.outcomes[i].completion_cycle, b.outcomes[i].completion_cycle);
  }
  EXPECT_EQ(a.logits, b.logits);
}

ServeReport run_scenario_with_outputs() {
  const core::NetworkSpec spec = usps_spec();
  ServeConfig config;
  config.replicas = 3;
  config.queue_capacity = 32;
  config.batcher.max_batch_size = 6;
  config.batcher.max_wait_cycles = 1500;
  config.compute_outputs = true;

  LoadSpec ls;
  ls.rate_images_per_second = 500000.0;
  ls.request_count = 120;
  ls.distinct_images = 5;

  InferenceServer server(spec, config);
  return server.run(generate_load(spec, ls));
}

TEST(InferenceServerTest, DeterministicAcrossThreadCounts) {
  ServeReport sequential, parallel;
  {
    ScopedSweepThreads env("1");
    sequential = run_scenario_with_outputs();
  }
  {
    ScopedSweepThreads env("4");
    parallel = run_scenario_with_outputs();
  }
  expect_same_report(sequential, parallel);
  EXPECT_GT(sequential.stats.completed_requests, 0u);
}

TEST(InferenceServerTest, RepeatedRunsAreIdentical) {
  const ServeReport a = run_scenario_with_outputs();
  const ServeReport b = run_scenario_with_outputs();
  expect_same_report(a, b);
}

TEST(InferenceServerTest, BatchedLogitsMatchSingleImageHarness) {
  const core::NetworkSpec spec = usps_spec();
  const ServeReport report = run_scenario_with_outputs();

  LoadSpec ls;
  ls.rate_images_per_second = 500000.0;
  ls.request_count = 120;
  ls.distinct_images = 5;
  const Load load = generate_load(spec, ls);

  core::AcceleratorHarness reference(core::build_accelerator(spec));
  std::vector<std::vector<float>> per_image;
  for (const Tensor& img : load.images) per_image.push_back(reference.run_image(img));

  ASSERT_EQ(report.logits.size(), load.requests.size());
  for (const Request& r : load.requests) {
    ASSERT_FALSE(report.outcomes[r.id].shed);
    EXPECT_EQ(report.logits[r.id], per_image[r.image_index])
        << "request " << r.id << " logits diverge from the single-image harness";
  }
}

TEST(InferenceServerTest, LightLoadProducesSizeOneBatches) {
  // Arrivals far apart: the serve path legitimately produces batch size 1,
  // which exercises the BatchResult empty/size-1 guards downstream.
  const core::NetworkSpec spec = usps_spec();
  ServeConfig config;
  config.replicas = 1;
  config.batcher.max_batch_size = 8;
  config.batcher.max_wait_cycles = 100;
  config.compute_outputs = true;

  LoadSpec ls;
  ls.arrivals = ArrivalProcess::kUniform;
  ls.rate_images_per_second = 2000.0;  // 50000-cycle gaps, way below capacity
  ls.request_count = 4;

  InferenceServer server(spec, config);
  const ServeReport report = server.run(generate_load(spec, ls));
  ASSERT_EQ(report.batch_records.size(), 4u);
  for (const BatchRecord& b : report.batch_records) EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(report.stats.completed_requests, 4u);
  EXPECT_EQ(report.stats.mean_batch_size, 1.0);
}

TEST(InferenceServerTest, MultiBoardReplicasReplayTheirPlan) {
  // Every board count takes one path: a 2-board pool plans with the 2-board
  // table and replays on 2-board harnesses (execute() checks each batch's
  // cycles against the plan), producing the single-device logits.
  const core::NetworkSpec spec = usps_spec();
  ServeConfig config;
  config.replicas = 2;
  config.batcher.max_batch_size = 4;
  config.batcher.max_wait_cycles = 1000;
  config.compute_outputs = true;
  LoadSpec ls;
  ls.rate_images_per_second = 300000.0;
  ls.request_count = 24;
  ls.distinct_images = 3;
  const Load load = generate_load(spec, ls);

  InferenceServer server(spec, config, 2);
  const ServeReport report = server.run(load);
  const std::vector<std::uint64_t> table = cluster::measure_service_table(spec, 2, 4);
  for (const BatchRecord& b : report.batch_records) {
    EXPECT_EQ(b.service_cycles(), table[b.size() - 1]);
  }
  core::AcceleratorHarness reference(core::build_accelerator(spec));
  std::vector<std::vector<float>> per_image;
  for (const Tensor& img : load.images) per_image.push_back(reference.run_image(img));
  for (const Request& r : load.requests) {
    ASSERT_FALSE(report.outcomes[r.id].shed);
    EXPECT_EQ(report.logits[r.id], per_image[r.image_index]) << "request " << r.id;
  }
  EXPECT_THROW(InferenceServer(spec, config, 0), ConfigError);
}

// --- p99.9 --------------------------------------------------------------------

TEST(PercentileTest, P999DegeneratesToMaxOnSmallSamples) {
  // Below ~1000 samples the nearest-rank p99.9 is just the maximum; the
  // field must still be well-defined (and zero on an empty sample).
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(latency_percentiles(v).p999, 100u);
  EXPECT_EQ(latency_percentiles({42}).p999, 42u);
  EXPECT_EQ(latency_percentiles({}).p999, 0u);

  // With 2000 samples 1..2000 the rank is ceil(0.999 * 2000) = 1998.
  std::vector<std::uint64_t> big;
  for (std::uint64_t i = 1; i <= 2000; ++i) big.push_back(i);
  const LatencyPercentiles p = latency_percentiles(big);
  EXPECT_EQ(p.p999, 1998u);
  EXPECT_GE(p.p999, p.p99);
}

TEST(ServeStatsTest, ReportsAndRendersP999) {
  const core::NetworkSpec spec = usps_spec();
  ServeConfig config;
  config.replicas = 1;
  config.batcher.max_batch_size = 4;
  config.batcher.max_wait_cycles = 200;

  LoadSpec ls;
  ls.arrivals = ArrivalProcess::kUniform;
  ls.rate_images_per_second = 50000.0;
  ls.request_count = 40;

  InferenceServer server(spec, config);
  const ServeReport report = server.run(generate_load(spec, ls));
  EXPECT_GE(report.stats.p999_latency_cycles, report.stats.p99_latency_cycles);
  EXPECT_NE(report.stats.render().find("p99.9 latency (cycles)"), std::string::npos);
}

// --- request-lifecycle spans ---------------------------------------------------

struct SpanWindow {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  bool open = false;
};

// Collects (phase, id) -> window from the shared request track.
std::map<std::pair<int, std::uint64_t>, SpanWindow> request_spans(const obs::TraceSink& sink) {
  std::uint32_t req_entity = 0;
  bool found = false;
  for (std::uint32_t i = 0; i < sink.entities().size(); ++i) {
    if (sink.entity(i).name == "serve.requests") {
      req_entity = i;
      found = true;
    }
  }
  EXPECT_TRUE(found);
  std::map<std::pair<int, std::uint64_t>, SpanWindow> spans;
  for (const obs::TraceEvent& ev : sink.events()) {
    if (ev.entity != req_entity) continue;
    const auto key = std::make_pair(static_cast<int>(obs::span_phase(ev.value)),
                                    static_cast<std::uint64_t>(obs::span_id(ev.value)));
    if (ev.kind == obs::EventKind::kSpanBegin) {
      spans[key].begin = ev.cycle;
      spans[key].open = true;
    } else if (ev.kind == obs::EventKind::kSpanEnd) {
      spans[key].end = ev.cycle;
      spans[key].open = false;
    }
  }
  return spans;
}

ServeReport run_traced_scenario(obs::TraceSink* sink, std::size_t queue_capacity,
                                double rate) {
  const core::NetworkSpec spec = usps_spec();
  ServeConfig config;
  config.replicas = 2;
  config.queue_capacity = queue_capacity;
  config.batcher.max_batch_size = 8;
  config.batcher.max_wait_cycles = 400;
  config.trace = sink;

  LoadSpec ls;
  ls.arrivals = ArrivalProcess::kPoisson;
  ls.rate_images_per_second = rate;
  ls.request_count = 300;
  ls.seed = 11;

  InferenceServer server(spec, config);
  return server.run(generate_load(spec, ls));
}

TEST(ServeSpanTest, QueuedPlusExecuteCyclesSumToRequestLatency) {
  obs::TraceSink sink;
  const ServeReport report = run_traced_scenario(&sink, 64, 200000.0);
  EXPECT_EQ(sink.dropped(), 0u);

  const auto spans = request_spans(sink);
  std::size_t completed = 0;
  for (const RequestOutcome& r : report.outcomes) {
    if (r.shed || r.failed) continue;
    const auto queued =
        spans.find({static_cast<int>(obs::SpanPhase::kQueued), r.id});
    const auto execute =
        spans.find({static_cast<int>(obs::SpanPhase::kExecute), r.id});
    ASSERT_NE(queued, spans.end()) << "request " << r.id;
    ASSERT_NE(execute, spans.end()) << "request " << r.id;
    EXPECT_FALSE(queued->second.open);
    EXPECT_FALSE(execute->second.open);
    // Fault-free exactness: queued covers arrival -> dispatch, execute covers
    // dispatch -> completion, and together they tile the measured latency.
    EXPECT_EQ(queued->second.begin, r.arrival_cycle);
    EXPECT_EQ(queued->second.end, r.dispatch_cycle);
    EXPECT_EQ(execute->second.begin, r.dispatch_cycle);
    EXPECT_EQ(execute->second.end, r.completion_cycle);
    const std::uint64_t span_sum = (queued->second.end - queued->second.begin) +
                                   (execute->second.end - execute->second.begin);
    EXPECT_EQ(span_sum, r.latency_cycles()) << "request " << r.id;
    ++completed;
  }
  EXPECT_GT(completed, 0u);
}

TEST(ServeSpanTest, ShedRequestsGetMarkersNotSpans) {
  obs::TraceSink sink;
  // A tiny queue under a hopeless burst rate guarantees sheds.
  const ServeReport report = run_traced_scenario(&sink, 2, 2000000.0);
  const auto spans = request_spans(sink);
  std::size_t sheds = 0;
  for (const RequestOutcome& r : report.outcomes) {
    if (!r.shed) continue;
    ++sheds;
    EXPECT_NE(spans.find({static_cast<int>(obs::SpanPhase::kShed), r.id}), spans.end());
    EXPECT_EQ(spans.find({static_cast<int>(obs::SpanPhase::kQueued), r.id}), spans.end());
    EXPECT_EQ(spans.find({static_cast<int>(obs::SpanPhase::kExecute), r.id}), spans.end());
  }
  EXPECT_GT(sheds, 0u);
}

TEST(ServeSpanTest, TraceIsByteIdenticalAcrossRunsAndThreadSettings) {
  obs::TraceSink a;
  run_traced_scenario(&a, 64, 200000.0);
  obs::TraceSink b;
  {
    ScopedSweepThreads threads("1");
    run_traced_scenario(&b, 64, 200000.0);
  }
  obs::TraceSink c;
  {
    ScopedSweepThreads threads("4");
    run_traced_scenario(&c, 64, 200000.0);
  }
  ASSERT_EQ(a.events().size(), b.events().size());
  ASSERT_EQ(a.events().size(), c.events().size());
  auto same = [](const obs::TraceEvent& x, const obs::TraceEvent& y) {
    return x.cycle == y.cycle && x.entity == y.entity && x.kind == y.kind &&
           x.value == y.value;
  };
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_TRUE(same(a.events()[i], b.events()[i])) << "event " << i;
    EXPECT_TRUE(same(a.events()[i], c.events()[i])) << "event " << i;
  }
}

TEST(ServeSpanTest, TracingDoesNotChangeTheTimeline) {
  obs::TraceSink sink;
  const ServeReport traced = run_traced_scenario(&sink, 64, 200000.0);
  const ServeReport plain = run_traced_scenario(nullptr, 64, 200000.0);
  ASSERT_EQ(traced.outcomes.size(), plain.outcomes.size());
  for (std::size_t i = 0; i < traced.outcomes.size(); ++i) {
    EXPECT_EQ(traced.outcomes[i].completion_cycle, plain.outcomes[i].completion_cycle);
    EXPECT_EQ(traced.outcomes[i].dispatch_cycle, plain.outcomes[i].dispatch_cycle);
    EXPECT_EQ(traced.outcomes[i].shed, plain.outcomes[i].shed);
  }
  EXPECT_EQ(traced.stats.p999_latency_cycles, plain.stats.p999_latency_cycles);
}

}  // namespace
}  // namespace dfc::serve
