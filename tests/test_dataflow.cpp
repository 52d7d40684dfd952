// Unit tests for the simulation kernel: registered FIFO semantics, two-phase
// scheduling, backpressure, deadlock detection and end-to-end pipelines.
#include <gtest/gtest.h>

#include <deque>

#include "dataflow/endpoints.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/sim_context.hpp"

namespace dfc::df {
namespace {

std::vector<int> iota_tokens(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

TEST(FifoTest, PushVisibleOnlyAfterCommit) {
  Fifo<int> f("f", 4);
  ASSERT_TRUE(f.can_push());
  f.push(42);
  EXPECT_FALSE(f.can_pop());  // registered handshake: not visible this cycle
  f.commit();
  ASSERT_TRUE(f.can_pop());
  EXPECT_EQ(f.pop(), 42);
}

TEST(FifoTest, SinglePushAndPopPerCycle) {
  Fifo<int> f("f", 4);
  f.push(1);
  EXPECT_FALSE(f.can_push());  // one write port
  f.commit();
  f.push(2);
  f.commit();
  EXPECT_EQ(f.pop(), 1);
  EXPECT_FALSE(f.can_pop());  // one read port
  f.commit();
  EXPECT_EQ(f.pop(), 2);
}

TEST(FifoTest, CapacityOneHalvesThroughput) {
  // A capacity-1 FIFO cannot accept a push while occupied, even if the
  // consumer pops the same cycle — like a single register with no skid
  // buffer.
  Fifo<int> f("f", 1);
  f.push(1);
  f.commit();
  EXPECT_FALSE(f.can_push());
  (void)f.pop();
  EXPECT_FALSE(f.can_push());  // pop frees the slot only at commit
  f.commit();
  EXPECT_TRUE(f.can_push());
}

TEST(FifoTest, CapacityTwoSustainsFullRate) {
  Fifo<int> f("f", 2);
  f.push(0);
  f.commit();
  for (int i = 1; i < 50; ++i) {
    ASSERT_TRUE(f.can_push()) << "cycle " << i;
    ASSERT_TRUE(f.can_pop()) << "cycle " << i;
    f.push(i);
    EXPECT_EQ(f.pop(), i - 1);
    f.commit();
  }
}

TEST(FifoTest, TakeReferenceSurvivesSameCyclePush) {
  // A capacity-2 FIFO at full rate: every cycle takes the front and pushes
  // into the other slot, so the taken reference holds until commit.
  Fifo<int> f("f", 2);
  f.push(0);
  f.commit();
  for (int i = 1; i < 10; ++i) {
    const int& taken = f.take();
    ASSERT_TRUE(f.can_push());
    f.push_slot() = i;
    EXPECT_EQ(taken, i - 1);
    f.commit();
  }
  EXPECT_EQ(f.pop(), 9);
}

TEST(FifoTest, StatsTrackTraffic) {
  Fifo<int> f("f", 2);
  f.push(1);
  f.commit();
  f.push(2);
  f.commit();
  (void)f.pop();
  f.commit();
  EXPECT_EQ(f.stats().pushes, 2u);
  EXPECT_EQ(f.stats().pops, 1u);
  EXPECT_EQ(f.stats().max_occupancy, 2u);
}

TEST(FifoTest, ResetClearsContentsNotStats) {
  Fifo<int> f("f", 2);
  f.push(1);
  f.commit();
  f.reset();
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.stats().pushes, 1u);
}

TEST(SimContextTest, SourceToSinkTransfersEverythingInOrder) {
  SimContext ctx;
  auto& f = ctx.add_fifo<int>("chan", 2);
  auto& src = ctx.add_process<VectorSource<int>>("src", f, iota_tokens(100));
  auto& sink = ctx.add_process<VectorSink<int>>("sink", f);
  ctx.run_until([&] { return sink.count() == 100; }, 10'000);
  (void)src;
  EXPECT_EQ(sink.tokens(), iota_tokens(100));
}

TEST(SimContextTest, ThroughputIsOneTokenPerCycleAtSteadyState) {
  SimContext ctx;
  auto& f = ctx.add_fifo<int>("chan", 2);
  ctx.add_process<VectorSource<int>>("src", f, iota_tokens(200));
  auto& sink = ctx.add_process<VectorSink<int>>("sink", f);
  ctx.run_until([&] { return sink.count() == 200; }, 10'000);
  const auto& arrivals = sink.arrival_cycles();
  for (std::size_t i = 101; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], 1u) << "at token " << i;
  }
}

TEST(SimContextTest, PipelineOfMapsAppliesInOrder) {
  SimContext ctx;
  auto& a = ctx.add_fifo<int>("a", 2);
  auto& b = ctx.add_fifo<int>("b", 2);
  auto& c = ctx.add_fifo<int>("c", 2);
  ctx.add_process<VectorSource<int>>("src", a, iota_tokens(50));
  auto dbl = [](int x) { return 2 * x; };
  auto inc = [](int x) { return x + 1; };
  ctx.add_process<MapProcess<int, int, decltype(dbl)>>("dbl", a, b, dbl);
  ctx.add_process<MapProcess<int, int, decltype(inc)>>("inc", b, c, inc);
  auto& sink = ctx.add_process<VectorSink<int>>("sink", c);
  ctx.run_until([&] { return sink.count() == 50; }, 10'000);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(sink.tokens()[static_cast<std::size_t>(i)], 2 * i + 1);
  }
}

TEST(SimContextTest, BackpressurePropagatesWithoutLoss) {
  // A slow consumer (pops every 4th cycle) must not lose tokens.
  class SlowSink final : public Process {
   public:
    SlowSink(std::string name, Fifo<int>& in) : Process(std::move(name)), in_(in) {}
    void on_clock() override {
      if (now() % 4 != 0) return;
      if (!in_.can_pop()) return;
      got_.push_back(in_.pop());
    }
    std::vector<int> got_;

   private:
    Fifo<int>& in_;
  };

  SimContext ctx;
  auto& f = ctx.add_fifo<int>("chan", 2);
  ctx.add_process<VectorSource<int>>("src", f, iota_tokens(40));
  auto& sink = ctx.add_process<SlowSink>("sink", f);
  ctx.run_until([&] { return sink.got_.size() == 40; }, 10'000);
  EXPECT_EQ(sink.got_, iota_tokens(40));
  EXPECT_GT(f.stats().full_stall_cycles, 0u);
}

TEST(SimContextTest, RunUntilThrowsOnCycleBudget) {
  SimContext ctx;
  ctx.add_fifo<int>("unused", 2);
  EXPECT_THROW(ctx.run_until([] { return false; }, 100), SimError);
}

TEST(SimContextTest, DeadlockDetectionFires) {
  // A consumer waiting on a channel nobody feeds: no FIFO activity at all.
  SimContext ctx;
  auto& f = ctx.add_fifo<int>("starved", 2);
  auto& sink = ctx.add_process<VectorSink<int>>("sink", f);
  ctx.set_idle_limit(50);
  EXPECT_THROW(ctx.run_until([&] { return sink.count() == 1; }, 1'000'000), SimError);
}

TEST(SimContextTest, ResetRestoresInitialState) {
  SimContext ctx;
  auto& f = ctx.add_fifo<int>("chan", 2);
  auto& src = ctx.add_process<VectorSource<int>>("src", f, iota_tokens(10));
  auto& sink = ctx.add_process<VectorSink<int>>("sink", f);
  ctx.run_until([&] { return sink.count() == 10; }, 1'000);
  ctx.reset();
  EXPECT_EQ(ctx.cycle(), 0u);
  EXPECT_EQ(sink.count(), 0u);
  // The source replays its tokens after reset.
  ctx.run_until([&] { return sink.count() == 10; }, 1'000);
  EXPECT_EQ(sink.tokens(), iota_tokens(10));
  (void)src;
}

TEST(SimContextTest, FifoReportListsChannels) {
  SimContext ctx;
  ctx.add_fifo<int>("alpha", 2);
  ctx.add_fifo<float>("beta", 3);
  const std::string report = ctx.fifo_report();
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find("beta"), std::string::npos);
}

TEST(SimContextTest, OrderIndependenceOfProcessRegistration) {
  // Sink registered before source: results identical because pushes commit
  // at end of cycle.
  SimContext ctx;
  auto& f = ctx.add_fifo<int>("chan", 2);
  auto& sink = ctx.add_process<VectorSink<int>>("sink", f);
  ctx.add_process<VectorSource<int>>("src", f, iota_tokens(30));
  ctx.run_until([&] { return sink.count() == 30; }, 10'000);
  EXPECT_EQ(sink.tokens(), iota_tokens(30));
}

// Randomized differential test: a Fifo under arbitrary interleaved
// push/pop pressure must behave exactly like a std::queue evaluated with
// registered-handshake semantics.
class FifoRandomTraffic : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FifoRandomTraffic, MatchesQueueReferenceModel) {
  std::uint64_t state = GetParam() * 0x9e3779b97f4a7c15ULL + 1;
  auto rand_bit = [&](int num, int den) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<int>(state % static_cast<std::uint64_t>(den)) < num;
  };

  const std::size_t cap = 1 + (GetParam() % 5);
  Fifo<int> fifo("rt", cap);
  std::deque<int> model;  // committed contents
  int produced = 0;
  std::vector<int> consumed_fifo;
  std::vector<int> consumed_model;

  for (int cycle = 0; cycle < 2000; ++cycle) {
    const bool want_push = rand_bit(2, 3);
    const bool want_pop = rand_bit(1, 2);

    // Reference semantics: pop sees start-of-cycle contents; push allowed if
    // start-of-cycle occupancy < capacity.
    const std::size_t start_size = model.size();
    bool did_push = false;
    if (want_push && start_size < cap) {
      fifo.push(produced);
      did_push = true;
      EXPECT_TRUE(true);
    } else if (want_push) {
      EXPECT_FALSE(fifo.can_push()) << "cycle " << cycle;
    }
    if (want_pop && !model.empty()) {
      ASSERT_TRUE(fifo.can_pop()) << "cycle " << cycle;
      consumed_fifo.push_back(fifo.pop());
      consumed_model.push_back(model.front());
      model.pop_front();
    } else if (want_pop) {
      EXPECT_FALSE(fifo.can_pop()) << "cycle " << cycle;
    }
    if (did_push) {
      model.push_back(produced);
      ++produced;
    }
    fifo.commit();
    ASSERT_EQ(fifo.size(), model.size()) << "cycle " << cycle;
  }
  EXPECT_EQ(consumed_fifo, consumed_model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FifoRandomTraffic, ::testing::Range<std::uint64_t>(1, 13));

TEST(JitterTest, ForwardsEverythingDespiteRandomStalls) {
  SimContext ctx;
  auto& a = ctx.add_fifo<int>("a", 2);
  auto& b = ctx.add_fifo<int>("b", 2);
  ctx.add_process<VectorSource<int>>("src", a, iota_tokens(100));
  ctx.add_process<JitterProcess<int>>("jitter", a, b, /*seed=*/0xBEEF, 0.5);
  auto& sink = ctx.add_process<VectorSink<int>>("sink", b);
  ctx.run_until([&] { return sink.count() == 100; }, 100'000);
  EXPECT_EQ(sink.tokens(), iota_tokens(100));
}

TEST(JitterTest, ActuallyPerturbsTiming) {
  auto run_with = [](double p) {
    SimContext ctx;
    auto& a = ctx.add_fifo<int>("a", 2);
    auto& b = ctx.add_fifo<int>("b", 2);
    ctx.add_process<VectorSource<int>>("src", a, iota_tokens(50));
    ctx.add_process<JitterProcess<int>>("jitter", a, b, 1, p);
    auto& sink = ctx.add_process<VectorSink<int>>("sink", b);
    return ctx.run_until([&] { return sink.count() == 50; }, 100'000);
  };
  EXPECT_GT(run_with(0.6), run_with(0.0));
}

TEST(OccupancyProbeTest, TracksFillLevel) {
  SimContext ctx;
  auto& f = ctx.add_fifo<int>("chan", 4);
  ctx.add_process<VectorSource<int>>("src", f, iota_tokens(20));

  // A consumer that only starts after cycle 10, letting the FIFO fill up.
  class LateSink final : public Process {
   public:
    LateSink(std::string name, Fifo<int>& in) : Process(std::move(name)), in_(in) {}
    void on_clock() override {
      if (now() < 10 || !in_.can_pop()) return;
      (void)in_.pop();
      ++got_;
    }
    std::size_t got_ = 0;

   private:
    Fifo<int>& in_;
  };
  auto& sink = ctx.add_process<LateSink>("late", f);
  auto& probe = ctx.add_process<OccupancyProbe>("probe", f);
  ctx.run_until([&] { return sink.got_ >= 10; }, 10'000);
  EXPECT_EQ(probe.peak(), 4u);  // filled to capacity while the sink slept
  EXPECT_GE(probe.samples().size(), 10u);
}

TEST(SimContextTest, SourceFeedAppendsMidStream) {
  SimContext ctx;
  auto& f = ctx.add_fifo<int>("chan", 2);
  auto& src = ctx.add_process<VectorSource<int>>("src", f, iota_tokens(5));
  auto& sink = ctx.add_process<VectorSink<int>>("sink", f);
  ctx.run_until([&] { return sink.count() == 5; }, 1'000);
  src.feed({100, 101});
  ctx.run_until([&] { return sink.count() == 7; }, 1'000);
  EXPECT_EQ(sink.tokens()[5], 100);
  EXPECT_EQ(sink.tokens()[6], 101);
}

}  // namespace
}  // namespace dfc::df
