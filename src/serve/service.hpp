// Layer 3.3 — request evaluation for flopsim-serve.
//
// One JSONL request line in, one JSONL response line out. The service is
// transport-agnostic (the socket server and the `flopsim-serve eval`
// batch mode both drive it; the server calls lookup() on its reader
// thread and evaluate() on a worker for the misses) and owns three
// things:
//
//  * the request schema: {"id": ..., "type": "ping" | "plan" |
//    "campaign" | "metrics", ...params}, validated field by field;
//  * the response contract: {"id": ..., "status": <exit-taxonomy>,
//    "result": {...}} — status reuses the process exit taxonomy
//    per-request (0 ok, 1 evaluation failure, 2 malformed request,
//    75 rejected by backpressure, the caller's code), and result bytes
//    are deterministic (obs::JsonObject field order, ostream-default
//    double formatting), which is what makes cached responses
//    byte-identical to fresh evaluations;
//  * the cache key: a fault::SpecHash over the request's *resolved*
//    semantic fields — unit kind, precision, depth, objective,
//    hardening, seeds, trial counts. The evaluation backend and worker
//    thread count never enter the key (tallies are backend- and
//    thread-invariant, the PR 7 contract), so one cache serves every
//    backend configuration.
//
// Request types:
//   ping      -> {"pong": true}; never cached (liveness probe).
//   plan      -> the flopsim-gen datasheet as JSON: timing, area, power,
//                freq/area, optional hardening cost; "stages" absent or 0
//                asks for the freq/area optimum (runs the depth sweep and
//                reports min/opt/max alongside). op "cvt" takes
//                src_bits/dst_bits instead of bits.
//   campaign  -> a seeded SEU campaign; "kernel": "unit" (default) runs
//                run_unit_campaign, "matmul" runs run_matmul_campaign.
//                Results carry the full tally breakdown, including
//                dropped_trials for matmul (the draws-exhausted count).
//   metrics   -> the obs:: registry; never cached. Optional "format":
//                "json" (default, a JSON array of metric objects) or
//                "prometheus" (text exposition 0.0.4 in result.text).
//   shutdown  -> acknowledged here; the *server* decides whether to act
//                on it (the eval batch mode just acks).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "rtl/evaluator.hpp"
#include "serve/json.hpp"

namespace flopsim::obs {
class Counter;
class Histogram;
class Registry;
}  // namespace flopsim::obs

namespace flopsim::serve {

class ResultCache;
class Telemetry;
struct RequestTrace;

struct ServiceConfig {
  /// Worker threads for each request's *inner* trial/sweep loops
  /// (exec::parallel_for_grid). The server runs requests on its own
  /// pool, so the default keeps each request serial and lets concurrency
  /// come from request-level parallelism.
  int threads = 1;
  /// Evaluation backend campaigns run under. Never part of the cache key.
  rtl::EvalBackend backend = rtl::EvalBackend::kAuto;
};

/// A request line split far enough to route it: its echoable id, its
/// type, and the parsed body (valid only when status == 0 so far).
struct ParsedRequest {
  int status = 0;          ///< 0, or 2 with `error` set
  std::string error;
  std::string id_json;     ///< rendered id to echo ("7", "\"abc\"", "null")
  std::string type;
  JsonValue body;
  /// Set by Service::lookup on a cache miss, so evaluate() neither
  /// resolves nor looks the request up a second time: its cache key, the
  /// evaluation that renders its result body, and the microseconds the
  /// lookup took (part of the request's latency and eval phase).
  std::uint64_t key = 0;
  std::function<std::string()> compute;
  double lookup_us = 0.0;
};

/// The success envelope {"id": <id_json>, "status": 0, "result":
/// <result_json>}, byte-equal to its obs::JsonObject rendering.
std::string ok_response(const std::string& id_json,
                        const std::string& result_json);

class Service {
 public:
  /// `cache` may be null (uncached evaluation, used by tests and the
  /// cacheless eval mode).
  Service(ServiceConfig cfg, ResultCache* cache, obs::Registry& reg);

  /// Parse and validate the envelope only — cheap enough for the
  /// server's reader thread, which must route ping/metrics inline and
  /// reject queued work with the right id when the queue is full.
  ParsedRequest parse(const std::string& line) const;

  /// The first half of evaluate() for a plan/campaign request, cheap
  /// enough for the server's reader thread: resolve its fields to the
  /// cache key and look the key up. A hit comes back as the finished
  /// response, counted and traced as evaluate() would have. A miss
  /// returns nullopt with `req.key`/`req.compute` set. Other types,
  /// fields that fail validation, and an uncached service return nullopt
  /// and leave `req` as it was; evaluate() handles them as before.
  std::optional<std::string> lookup(ParsedRequest& req,
                                    RequestTrace* rt = nullptr);

  /// Evaluate a parsed request end to end: cache lookup (unless lookup()
  /// already missed), evaluation on miss, cache fill, response rendering.
  /// Also records the per-request latency histogram and request counters.
  /// With `rt` set, records the eval/cache phase decomposition and
  /// hit/miss into the trace, and installs the trace's eval-span context
  /// around evaluation so worker-side tracer spans land under the owning
  /// request.
  std::string evaluate(ParsedRequest& req, RequestTrace* rt = nullptr);

  /// parse + evaluate — the batch-mode entry point. With `telemetry`
  /// set, wraps the line in a RequestTrace (parse + eval phases; no
  /// queue/write phases in batch mode) and finishes it before returning.
  std::string handle_line(const std::string& line,
                          Telemetry* telemetry = nullptr);

  /// A rendered error response (used by the server for backpressure
  /// rejections, status 75).
  std::string error_response(const std::string& id_json, int status,
                             const std::string& message) const;

  const ServiceConfig& config() const { return cfg_; }
  ResultCache* cache() const { return cache_; }
  obs::Registry& registry() const { return reg_; }

 private:
  std::string metrics_body(const JsonValue& body) const;
  /// Latency histogram and, with `rt`, status and eval phase for a
  /// request whose Service work began at `t0` after `prior_us` elsewhere.
  void record(RequestTrace* rt, std::chrono::steady_clock::time_point t0,
              double prior_us, int status) const;

  ServiceConfig cfg_;
  ResultCache* cache_;
  obs::Registry& reg_;
  // Resolved once here; a request never takes the registry mutex.
  obs::Counter* requests_;
  obs::Counter* bad_;
  obs::Counter* failed_;
  obs::Histogram* latency_;
};

}  // namespace flopsim::serve
