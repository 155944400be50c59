#include "exec/parallel.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "exec/cancel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace flopsim::exec {

namespace {

/// Run one chunk under a worker span. With the tracer disabled (the
/// default) this is one relaxed atomic load on top of the chunk itself.
void run_chunk_traced(const ThreadPool::ChunkFn& fn, int worker,
                      std::size_t begin, std::size_t end) {
  auto span = obs::Tracer::global().span(
      "chunk", "worker",
      {{"worker", static_cast<long>(worker)},
       {"begin", static_cast<long>(begin)},
       {"end", static_cast<long>(end)}});
  fn(worker, begin, end);
}

/// Idle pools, kept between parallel_for_grid calls so a call pays for
/// its chunks, not for starting and joining threads. A call takes an idle
/// pool of its size (the most recently parked, so consecutive calls reuse
/// one set of workers) or builds one, and parks it again when it returns
/// or throws: a checked-out pool belongs to one caller, so concurrent and
/// nested calls never share a pool. The park is the only process-wide
/// state here. It is never destroyed: idle workers simply wait until the
/// process exits.
class PoolPark {
 public:
  std::unique_ptr<ThreadPool> take(int threads) {
    {
      std::lock_guard<std::mutex> lk(m_);
      for (std::size_t i = idle_.size(); i-- > 0;) {
        if (idle_[i]->threads() == threads) {
          std::unique_ptr<ThreadPool> pool = std::move(idle_[i]);
          idle_.erase(idle_.begin() + static_cast<std::ptrdiff_t>(i));
          return pool;
        }
      }
    }
    return std::make_unique<ThreadPool>(threads);
  }

  void park(std::unique_ptr<ThreadPool> pool) {
    std::lock_guard<std::mutex> lk(m_);
    idle_.push_back(std::move(pool));
  }

 private:
  std::mutex m_;
  std::vector<std::unique_ptr<ThreadPool>> idle_;
};

PoolPark& pool_park() {
  static PoolPark* const park = new PoolPark;
  return *park;
}

/// Run fn over `threads` static chunks on a parked pool.
void run_on_parked_pool(int threads, std::size_t count,
                        const ThreadPool::ChunkFn& fn) {
  struct Lease {
    std::unique_ptr<ThreadPool> pool;
    ~Lease() { pool_park().park(std::move(pool)); }
  } lease{pool_park().take(threads)};
  lease.pool->run_chunked(count, fn);
}

}  // namespace

int resolve_threads(int requested) {
  if (requested >= 1) {
    return requested > kMaxThreads ? kMaxThreads : requested;
  }
  if (const char* env = std::getenv("FLOPSIM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return v > kMaxThreads ? kMaxThreads : static_cast<int>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return 1;
  return hw > static_cast<unsigned>(kMaxThreads) ? kMaxThreads
                                                 : static_cast<int>(hw);
}

ThreadPool::Chunk ThreadPool::chunk_of(std::size_t count, int threads,
                                       int worker) {
  Chunk c;
  if (threads < 1 || worker < 0 || worker >= threads) return c;
  const std::size_t t = static_cast<std::size_t>(threads);
  const std::size_t w = static_cast<std::size_t>(worker);
  const std::size_t base = count / t;
  const std::size_t rem = count % t;
  c.begin = w * base + (w < rem ? w : rem);
  c.end = c.begin + base + (w < rem ? 1 : 0);
  return c;
}

struct ThreadPool::Impl {
  std::mutex m;
  std::condition_variable work_cv;   // new generation / stop
  std::condition_variable done_cv;   // pending hit zero
  const ChunkFn* fn = nullptr;       // borrowed for the current generation
  std::size_t count = 0;
  obs::SpanContext ctx{};            // caller's span scope, per generation
  std::uint64_t generation = 0;
  int pending = 0;
  bool stop = false;
  std::vector<std::exception_ptr> errors;  // one slot per worker index
  std::vector<std::thread> workers;        // workers 1..threads-1
};

ThreadPool::ThreadPool(int threads)
    : threads_(threads < 1 ? 1 : (threads > kMaxThreads ? kMaxThreads
                                                        : threads)),
      impl_(std::make_unique<Impl>()) {
  impl_->errors.assign(static_cast<std::size_t>(threads_), nullptr);
  impl_->workers.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w) {
    impl_->workers.emplace_back([this, w] {
      Impl& s = *impl_;
      // Pin the worker's metric shard / trace timeline row to its index.
      obs::set_thread_id(w);
      std::uint64_t seen = 0;
      for (;;) {
        const ChunkFn* fn = nullptr;
        std::size_t count = 0;
        obs::SpanContext ctx;
        {
          std::unique_lock<std::mutex> lk(s.m);
          s.work_cv.wait(lk,
                         [&] { return s.stop || s.generation != seen; });
          if (s.stop) return;
          seen = s.generation;
          fn = s.fn;
          count = s.count;
          ctx = s.ctx;
        }
        std::exception_ptr err;
        try {
          // Work runs in the caller's trace scope: a serve request's
          // worker-side chunk spans land under the owning request.
          obs::ScopedSpanContext scope(ctx);
          const Chunk c = chunk_of(count, threads_, w);
          if (c.begin < c.end) run_chunk_traced(*fn, w, c.begin, c.end);
        } catch (...) {
          err = std::current_exception();
        }
        {
          // Moved, not copied: the worker keeps no reference once the
          // caller can see the slot. A copy released after the unlock
          // drops the refcount inside uninstrumented libstdc++, which
          // ThreadSanitizer reports as a race with the caller's rethrow.
          std::lock_guard<std::mutex> lk(s.m);
          s.errors[static_cast<std::size_t>(w)] = std::move(err);
          if (--s.pending == 0) s.done_cv.notify_all();
        }
      }
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
}

void ThreadPool::run_chunked(std::size_t count, const ChunkFn& fn) {
  Impl& s = *impl_;
  {
    std::lock_guard<std::mutex> lk(s.m);
    s.fn = &fn;
    s.count = count;
    s.ctx = obs::current_span_context();
    s.errors.assign(static_cast<std::size_t>(threads_), nullptr);
    s.pending = threads_ - 1;
    ++s.generation;
  }
  s.work_cv.notify_all();

  std::exception_ptr own;
  try {
    const Chunk c = chunk_of(count, threads_, 0);
    if (c.begin < c.end) run_chunk_traced(fn, 0, c.begin, c.end);
  } catch (...) {
    own = std::current_exception();
  }

  std::unique_lock<std::mutex> lk(s.m);
  s.done_cv.wait(lk, [&] { return s.pending == 0; });
  s.errors[0] = own;
  for (const std::exception_ptr& e : s.errors) {
    if (e) std::rethrow_exception(e);
  }
}

namespace {

/// Effective worker count for a grid run: never more workers than chunks.
int grid_threads(std::size_t nchunks, int threads) {
  int t = resolve_threads(threads);
  if (static_cast<std::size_t>(t) > nchunks) {
    t = nchunks < 1 ? 1 : static_cast<int>(nchunks);
  }
  return t;
}

std::size_t resolve_grid_chunk(std::size_t count, int threads,
                               std::size_t chunk) {
  if (chunk > 0) return chunk;
  // One chunk per effective worker.
  const int t = grid_threads(count, threads);
  return (count + static_cast<std::size_t>(t) - 1) /
         static_cast<std::size_t>(t);
}

}  // namespace

std::size_t grid_chunk_count(std::size_t count, int threads,
                             std::size_t chunk) {
  if (count == 0) return 0;
  const std::size_t c = resolve_grid_chunk(count, threads, chunk);
  return (count + c - 1) / c;
}

GridResult parallel_for_grid(std::size_t count, int threads,
                             const ThreadPool::ChunkFn& fn,
                             const GridOptions& opts) {
  GridResult result;
  if (count == 0) return result;
  const std::size_t chunk = resolve_grid_chunk(count, threads, opts.chunk);
  const std::size_t nchunks = (count + chunk - 1) / chunk;
  result.chunks = nchunks;
  result.done.assign(nchunks, 0);

  std::mutex done_mutex;  // serializes on_chunk_done + the shared counters
  std::size_t completed = 0;
  std::size_t skipped = 0;

  // Worker w of t runs grid chunks w, w + t, w + 2t, ... (a static
  // round-robin deal: never stolen, never rebalanced), checking the skip
  // set and the cancellation token between chunks. Dealing, not cutting
  // contiguous spans, spreads a list whose cost varies along it (a
  // campaign draws its cheap trials first) over every worker.
  const int t = grid_threads(nchunks, threads);
  const auto stride = static_cast<std::size_t>(t);
  const ThreadPool::ChunkFn deal_fn = [&](int worker, std::size_t,
                                          std::size_t) {
    for (std::size_t c = static_cast<std::size_t>(worker); c < nchunks;
         c += stride) {
      if (opts.skip != nullptr && (*opts.skip)[c] != 0) {
        std::lock_guard<std::mutex> lk(done_mutex);
        result.done[c] = 1;
        ++skipped;
        continue;
      }
      if (c >= opts.run_limit) continue;
      if (opts.cancel != nullptr && opts.cancel->cancelled()) break;
      const std::size_t begin = c * chunk;
      const std::size_t end = std::min(count, begin + chunk);
      fn(worker, begin, end);
      std::lock_guard<std::mutex> lk(done_mutex);
      result.done[c] = 1;
      ++completed;
      if (opts.on_chunk_done) opts.on_chunk_done(c, begin, end);
    }
  };

  if (t <= 1) {
    run_chunk_traced(deal_fn, 0, 0, nchunks);
  } else {
    // One pool chunk per worker: worker w is handed [w, w + 1) and deals
    // itself its grid chunks.
    run_on_parked_pool(t, stride, deal_fn);
  }
  result.completed = completed;
  result.skipped = skipped;
  return result;
}

}  // namespace flopsim::exec
