// Unit tests for the common substrate: error macros, RNG, ring buffer,
// math helpers, CSV and table writers, the worker pool.
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace dfc {
namespace {

TEST(ErrorTest, RequireThrowsConfigError) {
  EXPECT_THROW(DFC_REQUIRE(false, "nope"), ConfigError);
  EXPECT_NO_THROW(DFC_REQUIRE(true, "fine"));
}

TEST(ErrorTest, CheckThrowsInternalError) {
  EXPECT_THROW(DFC_CHECK(1 == 2, "bad"), InternalError);
}

TEST(ErrorTest, MessagesCarryContext) {
  try {
    DFC_REQUIRE(false, "the detail");
    FAIL() << "should have thrown";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the detail"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(13), 13u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, FloatInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.next_float();
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(RngTest, NormalHasReasonableMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const float v = rng.normal();
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(RingBufferTest, PushPopFifoOrder) {
  RingBuffer<int> rb(4);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_EQ(rb.pop(), 2);
  rb.push(4);
  rb.push(5);
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), 4);
  EXPECT_EQ(rb.pop(), 5);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBufferTest, WrapAroundManyTimes) {
  RingBuffer<int> rb(3);
  for (int i = 0; i < 100; ++i) {
    rb.push(i);
    EXPECT_EQ(rb.pop(), i);
  }
}

TEST(RingBufferTest, FullAndAt) {
  RingBuffer<int> rb(2);
  rb.push(10);
  rb.push(20);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.at(0), 10);
  EXPECT_EQ(rb.at(1), 20);
  EXPECT_EQ(rb.front(), 10);
}

TEST(RingBufferTest, ClearEmpties) {
  RingBuffer<int> rb(2);
  rb.push(1);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(7);
  EXPECT_EQ(rb.pop(), 7);
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 5), 1);
  EXPECT_EQ(ceil_div(0, 5), 0);
  // Valid arguments stay usable in constant expressions despite the guards.
  static_assert(ceil_div(10, 3) == 4);
  static_assert(ceil_div(0, 1) == 0);
}

TEST(MathTest, CeilDivRejectsDegenerateArguments) {
  // A zero divisor used to be UB (integer division by zero) and a negative
  // numerator silently floored; both now fail loudly at the config layer.
  EXPECT_THROW(ceil_div(10, 0), ConfigError);
  EXPECT_THROW(ceil_div(10, -3), ConfigError);
  EXPECT_THROW(ceil_div(-1, 3), ConfigError);
}

TEST(MathTest, RoundUp) {
  EXPECT_EQ(round_up(10, 4), 12);
  EXPECT_EQ(round_up(8, 4), 8);
  EXPECT_EQ(round_up(0, 4), 0);
  static_assert(round_up(10, 4) == 12);
  EXPECT_THROW(round_up(10, 0), ConfigError);
  EXPECT_THROW(round_up(-4, 4), ConfigError);
}

TEST(MathTest, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
}

TEST(MathTest, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(25), 5);
  EXPECT_EQ(ceil_log2(std::uint64_t{1} << 63), 63);
  static_assert(ceil_log2(16) == 4);
  // ceil_log2(0) has no defined value; it used to return 0, aliasing the
  // x == 1 answer (and sizing address widths one bit too small downstream).
  EXPECT_THROW(ceil_log2(0), ConfigError);
}

TEST(MathTest, AlmostEqual) {
  EXPECT_TRUE(almost_equal(1.0f, 1.0f + 5e-6f));
  EXPECT_TRUE(almost_equal(1000.0f, 1000.05f));
  EXPECT_FALSE(almost_equal(1.0f, 1.1f));
}

TEST(CsvTest, HeaderAndRows) {
  CsvWriter csv({"a", "b"});
  csv.row_values(1, 2.5);
  csv.row_values("x", "y");
  EXPECT_EQ(csv.row_count(), 2u);
  EXPECT_EQ(csv.str(), "a,b\n1,2.5\nx,y\n");
}

TEST(CsvTest, QuotesSpecialCells) {
  CsvWriter csv({"a"});
  csv.row({"va,lue"});
  EXPECT_EQ(csv.str(), "a\n\"va,lue\"\n");
}

TEST(CsvTest, RowWidthMismatchThrows) {
  CsvWriter csv({"a", "b"});
  EXPECT_THROW(csv.row({"only one"}), ConfigError);
}

TEST(TableTest, RendersAlignedColumns) {
  AsciiTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name   |"), std::string::npos);
  EXPECT_NE(out.find("| longer |"), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.5504, 2), "55.04%");
  EXPECT_EQ(fmt_si(172414.0, 1), "172.4k");
  EXPECT_EQ(fmt_si(5.2e9, 1), "5.2G");
}

TEST(ThreadPoolTest, NestedCallsRunInline) {
  // One fan-out level: a run_indexed inside a pool worker (the calling
  // thread is one of them) runs every body on that worker, in index order,
  // whatever thread count it asks for.
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 8;
  std::vector<std::thread::id> outer_ids(kOuter);
  std::vector<std::vector<std::thread::id>> inner_ids(kOuter);
  std::vector<std::vector<std::size_t>> inner_order(kOuter);
  run_indexed(kOuter, kOuter, [&](std::size_t i) {
    outer_ids[i] = std::this_thread::get_id();
    run_indexed(kInner, kInner, [&](std::size_t j) {
      inner_ids[i].push_back(std::this_thread::get_id());
      inner_order[i].push_back(j);
    });
  });
  std::vector<std::size_t> in_order(kInner);
  std::iota(in_order.begin(), in_order.end(), std::size_t{0});
  for (std::size_t i = 0; i < kOuter; ++i) {
    ASSERT_EQ(inner_ids[i].size(), kInner) << "outer body " << i;
    for (const std::thread::id id : inner_ids[i]) EXPECT_EQ(id, outer_ids[i]) << "outer body " << i;
    EXPECT_EQ(inner_order[i], in_order) << "outer body " << i;
  }
}

TEST(ThreadPoolTest, LowestIndexExceptionWinsAtEveryLevel) {
  const auto throwing = [](std::size_t threads) {
    run_indexed(6, threads, [](std::size_t i) {
      if (i % 2 == 1) throw ConfigError("body " + std::to_string(i));
    });
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    try {
      throwing(threads);
      ADD_FAILURE() << "no exception with " << threads << " threads";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("body 1"), std::string::npos) << e.what();
    }
  }
  // The same from inside a worker, where the inner call runs inline.
  std::vector<std::string> nested(2);
  run_indexed(2, 2, [&](std::size_t i) {
    try {
      throwing(3);
    } catch (const ConfigError& e) {
      nested[i] = e.what();
    }
  });
  for (const std::string& what : nested) EXPECT_NE(what.find("body 1"), std::string::npos) << what;
}

}  // namespace
}  // namespace dfc
