// Deterministic host-side parallelism for the Monte-Carlo campaign and
// sweep engines.
//
// Every hot loop in the analysis layer is an embarrassingly parallel trial
// loop: the fault list (or depth grid) is fully drawn up front, each trial
// is independent, and the tallies are a fold over per-trial verdicts. This
// layer supplies the one primitive those loops need — parallel_for_grid,
// a fixed-size thread pool running *static* contiguous chunks — under a
// strict determinism contract:
//
//  * Work is split into contiguous chunks of [0, count) whose boundaries
//    are a pure function of (count, chunk size), or of (count, threads)
//    when no chunk size is given; worker w of T runs chunks w, w + T,
//    w + 2T, ... (dealt round-robin by index, never stolen, never
//    rebalanced).
//  * Workers only write per-index slots the caller pre-sized; the caller
//    reduces those slots in index (fault-list) order afterwards, never in
//    arrival order.
//  * Therefore results are bit-identical for every thread count, including
//    1 — the serial fallback, which runs the body inline on the caller with
//    no pool at all (and is what FLOPSIM_THREADS=1 selects).
//
// Pools are parked, not built per call: parallel_for_grid takes an idle
// ThreadPool of its size from a process-wide park (building one only when
// none is idle) and parks it again on return, also after a throw. A pool
// serves one call at a time, so concurrent callers, and calls made from
// inside a worker chunk, each run on a pool of their own. Which OS thread
// runs a worker index changes nothing: the chunk assignment is still a
// pure function of (count, threads).
//
// Instrumentation: every chunk execution is wrapped in an obs:: span
// (name "chunk", category "worker", tid = worker index) so a `--trace=`
// run shows per-worker utilization; with the tracer disabled this costs
// one relaxed atomic load per chunk. Workers pin obs::set_thread_id to
// their index, which also fixes their metric shard deterministically.
// run_chunked also captures the calling thread's obs::SpanContext and
// installs it around every worker chunk, so work done on behalf of a
// traced scope (a serve request) keeps its parent/child span linkage
// across the pool boundary.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

namespace flopsim::exec {

class CancelToken;

/// Worker thread count to use. `requested >= 1` wins as-is (clamped to
/// kMaxThreads); 0 means auto: the FLOPSIM_THREADS environment variable
/// when set to a positive integer, else std::thread::hardware_concurrency()
/// (1 when the implementation reports it as unavailable/0).
int resolve_threads(int requested = 0);

inline constexpr int kMaxThreads = 256;

/// A fixed-size pool of `threads - 1` background workers (chunk 0 always
/// runs on the calling thread, so a 1-thread pool spawns nothing and is
/// purely serial). Reusable: run_chunked may be called any number of times.
class ThreadPool {
 public:
  /// `threads` is clamped to [1, kMaxThreads].
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  /// fn(worker, begin, end): process indices [begin, end) as worker
  /// `worker` in [0, threads()).
  using ChunkFn =
      std::function<void(int worker, std::size_t begin, std::size_t end)>;

  /// Split [0, count) into threads() static contiguous chunks (the first
  /// count % threads chunks are one index longer) and run fn on each —
  /// chunk 0 on the calling thread. Blocks until every chunk finished.
  /// If chunks threw, rethrows the lowest-worker-index exception (a
  /// deterministic choice) after all workers have quiesced.
  void run_chunked(std::size_t count, const ChunkFn& fn);

  struct Chunk {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  /// The static chunk assignment: worker `worker` of `threads` owns
  /// [begin, end) of [0, count). Exposed for tests and for callers that
  /// need to reason about worker-local state.
  static Chunk chunk_of(std::size_t count, int threads, int worker);

 private:
  struct Impl;
  int threads_;
  std::unique_ptr<Impl> impl_;
};

// --- static-grid execution ------------------------------------------------
//
// A checkpointed campaign resumed at a different --threads= must re-run
// the *same* remaining chunks, so the grid fixes the chunk boundaries by
// an explicit chunk size — a pure function of (count, chunk) — and deals
// the grid chunks round-robin across the pool's static workers (chunk c
// runs on worker c mod T). Per-trial slot writes and the caller's ordered
// reduction keep results bit-identical at any thread count, for any chunk
// size, and across any interrupt/resume split.

struct GridOptions {
  /// Trials per grid chunk. 0 = one chunk per effective worker, never
  /// more workers than trials (the layout for loops that are not
  /// checkpointed). Checkpointed campaigns pass an explicit size so the
  /// grid survives thread-count changes.
  std::size_t chunk = 0;
  /// Per-chunk skip flags (restored-from-checkpoint chunks); nonzero
  /// entries are not run but count as done. Must have at least
  /// grid_chunk_count entries when non-null.
  const std::vector<char>* skip = nullptr;
  /// Chunks at or past this grid index do not run; a skipped one still
  /// counts as done. A trial budget fixes the chunks it covers this way
  /// before the grid runs, so which chunks run does not depend on timing.
  std::size_t run_limit = std::numeric_limits<std::size_t>::max();
  /// Polled between chunks; once cancelled() no further chunks start
  /// (in-flight chunks always finish).
  CancelToken* cancel = nullptr;
  /// Invoked after each chunk this invocation runs, SERIALIZED under one
  /// internal mutex (safe place for checkpoint appends and running
  /// tallies). Invocation order across workers is nondeterministic — only
  /// per-chunk exactly-once is guaranteed.
  std::function<void(std::size_t chunk_index, std::size_t begin,
                     std::size_t end)>
      on_chunk_done;
};

struct GridResult {
  std::size_t chunks = 0;     ///< grid chunks over [0, count)
  std::size_t completed = 0;  ///< chunks run by this invocation
  std::size_t skipped = 0;    ///< chunks skipped via GridOptions::skip
  std::vector<char> done;     ///< per-chunk: skipped or completed

  /// Every chunk done (restored or run) — false means cancelled mid-run
  /// or cut by GridOptions::run_limit.
  bool complete() const { return completed + skipped == chunks; }
};

/// Number of grid chunks parallel_for_grid(count, threads, ..., opts)
/// executes for `chunk` trials per chunk (0 resolves like GridOptions).
std::size_t grid_chunk_count(std::size_t count, int threads,
                             std::size_t chunk);

/// Run fn over the static chunk grid: fn(worker, begin, end) once per
/// grid chunk, chunk c on worker c mod T (T effective workers), chunk
/// boundaries independent of the thread count when opts.chunk > 0.
/// Runs on a parked pool; serial (inline, no pool) with one effective
/// worker.
GridResult parallel_for_grid(std::size_t count, int threads,
                             const ThreadPool::ChunkFn& fn,
                             const GridOptions& opts = {});

}  // namespace flopsim::exec
