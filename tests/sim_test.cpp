// Unit tests for the discrete-event substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace teco::sim {
namespace {

TEST(Time, UnitHelpers) {
  EXPECT_DOUBLE_EQ(ms(1.0), 1e-3);
  EXPECT_DOUBLE_EQ(us(1.0), 1e-6);
  EXPECT_DOUBLE_EQ(ns(1.0), 1e-9);
  EXPECT_DOUBLE_EQ(hours(2.0), 7200.0);
  EXPECT_DOUBLE_EQ(transfer_time(16e9, 16.0 * kGBps), 1.0);
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, TiesBreakFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NestedSameTimeTiesRunAfterQueuedTies) {
  // An event scheduled at the *current* timestamp from inside a running
  // event draws a later sequence number, so it runs after every event
  // already queued at that instant — nested work cannot jump the line.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] {
    order.push_back(0);
    q.schedule_at(1.0, [&] { order.push_back(3); });
  });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(1.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
}

TEST(EventQueue, SeededReplayIsDeterministic) {
  // Two queues fed the same seeded schedule — random times drawn from a
  // small set so same-timestamp collisions are common, plus nested
  // rescheduling — must execute callbacks in bit-identical order. This is
  // the replay guarantee the header documents.
  const auto run_once = [](std::uint64_t seed) {
    Rng rng(seed);
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 200; ++i) {
      const Time when = static_cast<Time>(rng.next_below(8));
      q.schedule_at(when, [&q, &rng, &order, i] {
        order.push_back(i);
        if (rng.next_bool(0.25)) {
          q.schedule_after(static_cast<Time>(rng.next_below(3)),
                           [&order, i] { order.push_back(1000 + i); });
        }
      });
    }
    q.run();
    return order;
  };
  const auto a = run_once(42);
  const auto b = run_once(42);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  // A different seed produces a different schedule (sanity: the test is
  // not vacuously comparing empty or trivially-equal orders).
  EXPECT_NE(run_once(43), a);
}

TEST(EventQueue, NestedScheduling) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] {
    order.push_back(1);
    q.schedule_after(0.5, [&] { order.push_back(2); });
  });
  q.schedule_at(2.0, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(2.0, [&] { ++fired; });
  q.schedule_at(3.0, [&] { ++fired; });
  EXPECT_EQ(q.run_until(2.0), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesIdleClock) {
  EventQueue q;
  q.run_until(7.5);
  EXPECT_DOUBLE_EQ(q.now(), 7.5);
}

TEST(EventQueue, PastSchedulesClampAndCount) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.run();
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });  // In the past.
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.clamped_past_schedules(), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, RunWithLimit) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 5; ++i) q.schedule_at(i, [&] { ++fired; });
  EXPECT_EQ(q.run(2), 2u);
  EXPECT_EQ(fired, 2);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowBoundsAndCoverage) {
  Rng rng(7);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++seen[v];
  }
  for (const int s : seen) EXPECT_GT(s, 700);  // Roughly uniform.
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  RunningStat s;
  for (int i = 0; i < 100000; ++i) s.add(rng.next_gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, BoolProbability) {
  Rng rng(3);
  int t = 0;
  for (int i = 0; i < 10000; ++i) t += rng.next_bool(0.25) ? 1 : 0;
  EXPECT_NEAR(t / 10000.0, 0.25, 0.02);
}

TEST(RunningStat, KnownValues) {
  RunningStat s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesCombined) {
  Rng rng(5);
  RunningStat a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_gaussian();
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Histogram, BinningAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.0);
  h.add(5.5);
  h.add(9.999);
  h.add(10.0);
  h.add(42.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_DOUBLE_EQ(h.fraction(0), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
}

TEST(Histogram, QuantileInterpolatesWithinBin) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 4; ++i) h.add(2.5);  // All mass in bin [2, 3).
  // target = q * 4 walks to bin 2; interpolation is linear in the bin.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 2.25);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
}

TEST(Histogram, QuantileEmptyIsZero) {
  const Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(Histogram, QuantileAllUnderflowReturnsLo) {
  Histogram h(5.0, 10.0, 5);
  h.add(-100.0);
  h.add(0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
  // And all-overflow mass sits at the upper bound.
  Histogram o(5.0, 10.0, 5);
  o.add(1e9);
  EXPECT_DOUBLE_EQ(o.quantile(0.5), 10.0);
}

TEST(Histogram, QuantileSingleBinAndClamping) {
  Histogram h(0.0, 4.0, 1);
  h.add(1.0);
  h.add(3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  // Out-of-range q clamps instead of extrapolating.
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

}  // namespace
}  // namespace teco::sim
