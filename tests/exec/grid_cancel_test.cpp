// The static-grid engine and the cancellation token — the resilience
// substrate under checkpoint/resume. The load-bearing properties: chunk
// boundaries are a pure function of (count, chunk size) and never of the
// thread count; skip flags restore chunks without running them; a
// cancelled grid stops between chunks and reports itself incomplete;
// on_chunk_done fires exactly once per executed chunk, serialized.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/parallel.hpp"

namespace flopsim::exec {
namespace {

TEST(GridChunkCount, CoversEveryCountChunkCombination) {
  EXPECT_EQ(grid_chunk_count(0, 1, 16), 0u);
  EXPECT_EQ(grid_chunk_count(1, 1, 16), 1u);
  EXPECT_EQ(grid_chunk_count(16, 1, 16), 1u);
  EXPECT_EQ(grid_chunk_count(17, 1, 16), 2u);
  EXPECT_EQ(grid_chunk_count(160, 1, 16), 10u);
  // chunk == 0 resolves to the legacy one-chunk-per-worker layout.
  EXPECT_EQ(grid_chunk_count(100, 4, 0), 4u);
  EXPECT_EQ(grid_chunk_count(3, 16, 0), 3u) << "never more chunks than trials";
}

TEST(Grid, BoundariesAreIndependentOfThreadCount) {
  const std::size_t count = 103;  // deliberately not a multiple of 8
  std::set<std::pair<std::size_t, std::size_t>> reference;
  for (int threads : {1, 2, 3, 8}) {
    std::set<std::pair<std::size_t, std::size_t>> spans;
    std::vector<int> hits(count, 0);
    std::mutex m;
    const GridOptions opts{
        .chunk = 8, .skip = nullptr, .cancel = nullptr, .on_chunk_done = {}};
    const GridResult r = parallel_for_grid(
        count, threads,
        [&](int worker, std::size_t begin, std::size_t end) {
          std::lock_guard<std::mutex> lk(m);
          // Chunks are dealt round-robin: chunk c runs on worker c mod T.
          EXPECT_EQ(static_cast<std::size_t>(worker),
                    begin / 8 % static_cast<std::size_t>(threads))
              << "chunk " << begin / 8 << " at threads=" << threads;
          spans.insert({begin, end});
          for (std::size_t i = begin; i < end; ++i) ++hits[i];
        },
        opts);
    EXPECT_EQ(r.chunks, 13u);
    EXPECT_EQ(r.completed, 13u);
    EXPECT_TRUE(r.complete());
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i], 1) << "index " << i << " at threads=" << threads;
    }
    if (reference.empty()) {
      reference = spans;
    } else {
      EXPECT_EQ(spans, reference) << "threads=" << threads;
    }
  }
}

TEST(Grid, SkipFlagsRestoreChunksWithoutRunningThem) {
  const std::size_t count = 40;
  std::vector<char> skip(5, 0);
  skip[0] = 1;
  skip[3] = 1;
  std::vector<int> ran;
  std::mutex m;
  GridOptions opts;
  opts.chunk = 8;
  opts.skip = &skip;
  const GridResult r = parallel_for_grid(
      count, 2,
      [&](int /*worker*/, std::size_t begin, std::size_t /*end*/) {
        std::lock_guard<std::mutex> lk(m);
        ran.push_back(static_cast<int>(begin / 8));
      },
      opts);
  EXPECT_EQ(r.chunks, 5u);
  EXPECT_EQ(r.skipped, 2u);
  EXPECT_EQ(r.completed, 3u);
  EXPECT_TRUE(r.complete()) << "restored + run covers the grid";
  const std::set<int> ran_set(ran.begin(), ran.end());
  EXPECT_EQ(ran_set, (std::set<int>{1, 2, 4}));
  for (std::size_t c = 0; c < r.chunks; ++c) {
    EXPECT_EQ(r.done[c], 1) << "chunk " << c;
  }
}

TEST(Grid, PreCancelledTokenRunsNothing) {
  CancelToken token;
  token.request(CancelToken::Reason::kOther);
  int calls = 0;
  GridOptions opts;
  opts.chunk = 4;
  opts.cancel = &token;
  const GridResult r = parallel_for_grid(
      16, 1, [&](int, std::size_t, std::size_t) { ++calls; }, opts);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(r.completed, 0u);
  EXPECT_FALSE(r.complete());
}

TEST(Grid, CancelMidRunStopsAtAChunkBoundary) {
  // Serial grid, cancel after the second chunk finishes: the remaining
  // chunks never start, completed chunks stay marked done.
  CancelToken token;
  GridOptions opts;
  opts.chunk = 4;
  opts.cancel = &token;
  opts.on_chunk_done = [&](std::size_t c, std::size_t, std::size_t) {
    if (c == 1) token.request(CancelToken::Reason::kOther);
  };
  std::vector<std::size_t> ran;
  const GridResult r = parallel_for_grid(
      32, 1,
      [&](int, std::size_t begin, std::size_t /*end*/) {
        ran.push_back(begin / 4);
      },
      opts);
  EXPECT_EQ(r.chunks, 8u);
  EXPECT_EQ(r.completed, 2u);
  EXPECT_FALSE(r.complete());
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(r.done[0], 1);
  EXPECT_EQ(r.done[1], 1);
  for (std::size_t c = 2; c < r.chunks; ++c) {
    EXPECT_EQ(r.done[c], 0) << "chunk " << c << " must not run";
  }
}

TEST(Grid, OnChunkDoneFiresExactlyOncePerChunkAndIsSerialized) {
  const std::size_t count = 96;
  std::vector<int> done_calls(12, 0);
  bool inside = false;
  bool overlapped = false;
  GridOptions opts;
  opts.chunk = 8;
  opts.on_chunk_done = [&](std::size_t c, std::size_t begin,
                           std::size_t end) {
    // The engine serializes this callback; concurrent entry would be a
    // checkpoint-corrupting bug.
    if (inside) overlapped = true;
    inside = true;
    EXPECT_EQ(begin, c * 8);
    EXPECT_EQ(end, begin + 8);
    ++done_calls[c];
    std::this_thread::yield();
    inside = false;
  };
  const GridResult r = parallel_for_grid(
      count, 8, [&](int, std::size_t, std::size_t) {}, opts);
  EXPECT_TRUE(r.complete());
  EXPECT_FALSE(overlapped);
  for (std::size_t c = 0; c < 12; ++c) {
    EXPECT_EQ(done_calls[c], 1) << "chunk " << c;
  }
}

TEST(CancelToken, FirstReasonSticksAndResetClears) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelToken::Reason::kNone);
  token.request(CancelToken::Reason::kTrialBudget);
  token.request(CancelToken::Reason::kSignal);  // loses: first wins
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelToken::Reason::kTrialBudget);
  token.reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelToken::Reason::kNone);
}

TEST(CancelToken, DeadlinePromotesToTimeBudget) {
  CancelToken token;
  token.set_deadline_after(1e-4);
  // Poll until the deadline passes; a stuck flag would hang the test, so
  // bound the wait far above the armed deadline.
  for (int i = 0; i < 2000 && !token.cancelled(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelToken::Reason::kTimeBudget);
  token.reset();
  EXPECT_FALSE(token.cancelled()) << "reset disarms the deadline too";
}

TEST(CancelToken, ReasonNamesAreStable) {
  EXPECT_STREQ(to_string(CancelToken::Reason::kSignal), "signal");
  EXPECT_STREQ(to_string(CancelToken::Reason::kTimeBudget), "time-budget");
  EXPECT_STREQ(to_string(CancelToken::Reason::kTrialBudget), "trial-budget");
  EXPECT_STREQ(to_string(CancelToken::Reason::kConverged), "converged");
}

TEST(Signals, RaiseFeedsTheGlobalToken) {
  install_signal_handlers();
  global_cancel_token().reset();
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(global_cancel_token().cancelled());
  EXPECT_EQ(global_cancel_token().reason(), CancelToken::Reason::kSignal);
  EXPECT_EQ(last_signal(), SIGTERM);
  global_cancel_token().reset();
}

TEST(Interrupted, CarriesItsReason) {
  const Interrupted e(CancelToken::Reason::kTimeBudget);
  EXPECT_EQ(e.reason, CancelToken::Reason::kTimeBudget);
  EXPECT_NE(std::string(e.what()).find("time-budget"), std::string::npos);
}

}  // namespace
}  // namespace flopsim::exec
