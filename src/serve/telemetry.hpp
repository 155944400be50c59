// Layer 3.4 — request-scoped tracing and telemetry for flopsim-serve.
//
// Every request gets a RequestTrace at socket read: a process-unique
// trace id, a span tree (one root "request" span plus one child span per
// pipeline phase), and a per-phase latency decomposition —
//
//   parse  — envelope parse/validate on the reader thread
//   queue  — admission-FIFO wait (enqueue mark to dequeue mark); absent
//            for requests answered on the reader thread: ping, metrics,
//            shutdown, malformed lines, cache hits and rejections
//   eval   — Service time (lookup on the reader, evaluation on the
//            worker) minus the cache phase
//   cache  — ResultCache lookup on the reader thread + write-back on the
//            evaluating worker
//   write  — socket write-back under the connection's ordered flush
//
// A queued request's trace rides the Job through the bounded queue, the
// exec:: worker pool (Service installs the trace's eval-span context
// around evaluation, so `--trace=` chunk spans land under the owning
// request), and the per-connection write-back ledger; Telemetry::finish()
// fires exactly once per request, after its response bytes left (or were
// dropped on a dead connection). An absent phase has no span and no
// histogram sample; the access log prints it as 0.
//
// finish() fans out three ways:
//  * serve.phase.*_us histograms in the obs:: registry (p50/p95/p99 via
//    the registry's quantile summaries, Prometheus exposition included);
//  * one JSONL access-log line per request (`--access-log=`): trace id,
//    status from the 0/1/2/75 taxonomy, cache hit/miss, phase timings;
//  * a slow-request capture (`--slow-log=`): the full span tree for any
//    request whose total latency reaches `--slow-ms=` (0 captures all).
//
// Determinism: telemetry never feeds back into evaluation — tallies,
// checkpoint sidecars, and BENCH bytes are bit-identical with tracing on
// or off, at any worker count. Phase fields are plain values; every
// cross-thread hand-off of a RequestTrace rides an existing
// happens-before edge (the admission-queue mutex, the connection's
// write-back mutex), so no telemetry-only synchronization exists on the
// request path. Trace ids are unique within one Telemetry instance
// (i.e. one server process); timings and span ids are wall-clock
// artifacts and are explicitly outside the determinism contract.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "obs/sink.hpp"
#include "obs/trace.hpp"

namespace flopsim::obs {
class Histogram;
class Registry;
}  // namespace flopsim::obs

namespace flopsim::serve {

/// The per-request latency decomposition phases, in pipeline order.
enum class Phase : int { kParse = 0, kQueue, kEval, kCache, kWrite };
inline constexpr int kPhaseCount = 5;

/// "parse", "queue", "eval", "cache", "write".
const char* phase_name(Phase p);

/// One request's trace state: identity, span ids, phase clock. Created by
/// Telemetry::begin() on the reader thread, handed through the queue to
/// the evaluating worker, finished after write-back. Accesses are
/// sequenced by the server's existing queue/connection mutexes — the
/// struct itself is not thread-safe.
struct RequestTrace {
  std::uint64_t trace_id = 0;
  std::uint64_t root_span = 0;               ///< the "request" span
  std::uint64_t phase_span[kPhaseCount] = {};  ///< children of root_span
  std::chrono::steady_clock::time_point t0{};  ///< begin() time

  std::string type = "?";       ///< request type, "?" until parsed
  std::string id_json = "null";  ///< echoable id, rendered
  int status = 0;               ///< response status (0/1/2/75)
  int cache = -1;               ///< -1 not consulted, 0 miss, 1 hit

  /// Microseconds from t0 to `t`.
  double us_since_start(std::chrono::steady_clock::time_point t) const;

  /// Open a phase (first call pins its start offset). begin/end pairs
  /// may repeat; durations accumulate (the cache phase sums lookup +
  /// write-back).
  void phase_begin(Phase p);
  void phase_end(Phase p);
  /// Set a phase outright (evaluate() carves cache time out of eval).
  void phase_record(Phase p, double start_us, double dur_us);

  bool phase_recorded(Phase p) const;
  double phase_start_us(Phase p) const;  ///< offset from t0; 0 if unset
  double phase_us(Phase p) const;        ///< accumulated duration; 0 if unset

  /// Context to install around evaluation: tracer spans recorded inside
  /// (worker chunk spans) become children of this request's eval span.
  obs::SpanContext eval_context() const {
    return {trace_id, phase_span[static_cast<int>(Phase::kEval)]};
  }

 private:
  double start_us_[kPhaseCount] = {-1, -1, -1, -1, -1};  // -1 = unset
  double dur_us_[kPhaseCount] = {};
  std::chrono::steady_clock::time_point open_[kPhaseCount] = {};
};

struct TelemetryConfig {
  std::string access_log_path;  ///< JSONL access log; empty = off
  std::string slow_log_path;    ///< slow-request span dumps; empty = off
  /// Slow-capture threshold, milliseconds; 0 captures every request
  /// (what the CI smoke run uses to validate span-tree completeness).
  double slow_ms = 0.0;
};

/// The per-server telemetry hub. Always records phase histograms into
/// the registry; the access log and slow-request capture only engage
/// when their paths are configured. Thread-safe: begin() is lock-free,
/// finish() serializes log appends under one mutex.
class Telemetry {
 public:
  /// Metrics-only telemetry (no log files).
  explicit Telemetry(obs::Registry& reg);
  Telemetry(TelemetryConfig cfg, obs::Registry& reg);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Both configured sinks opened (an empty path is trivially ok).
  bool ok() const { return ok_; }
  const TelemetryConfig& config() const { return cfg_; }

  /// New trace: unique trace id, span ids for root + every phase, clock
  /// epoch pinned to now (call at socket read / line receipt).
  std::shared_ptr<RequestTrace> begin();

  /// Record the trace: observe phase histograms, append the access-log
  /// line, capture the span tree if total latency reaches slow_ms.
  /// Call exactly once per trace, after the last phase ended.
  void finish(RequestTrace& rt);

 private:
  TelemetryConfig cfg_;
  obs::Registry& reg_;
  std::atomic<std::uint64_t> next_trace_id_{1};
  obs::Histogram* phase_hist_[kPhaseCount] = {};
  bool ok_ = true;
  std::mutex m_;  // serializes access/slow appends
  obs::JsonlSink access_;
  obs::JsonlSink slow_;
};

}  // namespace flopsim::serve
