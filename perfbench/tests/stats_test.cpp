#include "stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 75.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 99.0), 9.9);
}

TEST(TailRule, HighestLevelWithTenSamplesBeyond) {
  bool qualified = true;
  EXPECT_DOUBLE_EQ(tail_level(19, &qualified), 50.0);
  EXPECT_FALSE(qualified);
  EXPECT_DOUBLE_EQ(tail_level(20, &qualified), 50.0);
  EXPECT_TRUE(qualified);
  EXPECT_DOUBLE_EQ(tail_level(39), 50.0);
  EXPECT_DOUBLE_EQ(tail_level(40), 75.0);
  EXPECT_DOUBLE_EQ(tail_level(99), 75.0);
  EXPECT_DOUBLE_EQ(tail_level(100), 90.0);
  EXPECT_DOUBLE_EQ(tail_level(200), 95.0);
  EXPECT_DOUBLE_EQ(tail_level(999), 95.0);
  EXPECT_DOUBLE_EQ(tail_level(1000), 99.0);
  EXPECT_DOUBLE_EQ(tail_level(1000000), 99.0);  // the ladder stops at p99
}

TEST(TailRule, SummaryReportsLevelValueAndCount) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Distribution d = summarize(v);
  EXPECT_EQ(d.n, 1000u);
  EXPECT_DOUBLE_EQ(d.p50, 500.5);
  EXPECT_DOUBLE_EQ(d.tail_level, 99.0);
  EXPECT_TRUE(d.tail_qualified);
  EXPECT_DOUBLE_EQ(d.tail, d.p99);
  EXPECT_EQ(summarize({}).n, 0u);
}

TEST(ClosedLoop, CountsRequestsAndWindow) {
  ClosedLoop loop(2);
  loop.sent(0, 1.0);
  loop.received(0, 1.5, true);
  loop.sent(1, 1.2);
  loop.received(1, 2.0, false);  // bad status: failed, no latency sample
  loop.sent(0, 2.0);
  loop.received(0, 3.0, true);
  loop.sent(1, 2.5);
  loop.lost(1);  // connection dropped mid-request
  const ClosedLoop::Totals t = loop.totals();
  EXPECT_EQ(t.attempted, 4);
  EXPECT_EQ(t.completed, 2);
  EXPECT_EQ(t.failed, 2);
  EXPECT_EQ(t.outstanding, 0);
  EXPECT_DOUBLE_EQ(t.window_s, 2.0);  // first send 1.0 .. last reply 3.0
  EXPECT_DOUBLE_EQ(t.per_s, 1.0);
  ASSERT_EQ(t.latency_us.size(), 2u);
  EXPECT_DOUBLE_EQ(t.latency_us[0], 0.5e6);
  EXPECT_DOUBLE_EQ(t.latency_us[1], 1.0e6);
}

TEST(ClosedLoop, RejectsASecondRequestInFlight) {
  ClosedLoop loop(1);
  loop.sent(0, 0.0);
  EXPECT_THROW(loop.sent(0, 0.1), std::logic_error);
  loop.received(0, 0.2, true);
  EXPECT_THROW(loop.received(0, 0.3, true), std::logic_error);
  loop.sent(0, 0.4);
  EXPECT_EQ(loop.totals().outstanding, 1);
}

TEST(FailTally, FractionOfAttempted) {
  FailTally f;
  EXPECT_DOUBLE_EQ(f.frac(), 0.0);  // nothing attempted
  f.attempted = 1000;
  f.bad_status = 3;  // status 75 rejections count here too
  f.byte_mismatch = 2;
  f.tally_mismatch = 64;  // one mismatching 64-trial campaign
  f.dropped = 1;
  EXPECT_EQ(f.failed(), 70);
  EXPECT_DOUBLE_EQ(f.frac(), 0.07);
  f.tally_mismatch = 5000;  // never more failed than attempted
  EXPECT_EQ(f.failed(), 1000);
  EXPECT_DOUBLE_EQ(f.frac(), 1.0);
}

TEST(Reconciliation, UnaccountedShareOfWall) {
  EXPECT_DOUBLE_EQ((Reconciliation{0.0, 5.0}).unaccounted_frac(), 0.0);
  EXPECT_DOUBLE_EQ((Reconciliation{200.0, 150.0}).unaccounted_frac(), 0.25);
  EXPECT_DOUBLE_EQ((Reconciliation{100.0, 100.0}).unaccounted_frac(), 0.0);
  EXPECT_DOUBLE_EQ((Reconciliation{100.0, 120.0}).unaccounted_frac(), -0.2);
}

}  // namespace
}  // namespace perfbench
