// Layer 3.3 — request evaluation for flopsim-serve.
//
// One JSONL request line in, one JSONL response line out. The service is
// transport-agnostic (the socket server and the `flopsim-serve eval`
// batch mode both drive it) and owns three things:
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

#include <cstdint>
#include <string>

#include "rtl/evaluator.hpp"
#include "serve/json.hpp"

namespace flopsim::obs {
class Registry;
}

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
};

class Service {
 public:
  /// `cache` may be null (uncached evaluation, used by tests and the
  /// cacheless eval mode).
  Service(ServiceConfig cfg, ResultCache* cache, obs::Registry& reg);

  /// Parse and validate the envelope only — cheap enough for the
  /// server's reader thread, which must route ping/metrics inline and
  /// reject queued work with the right id when the queue is full.
  ParsedRequest parse(const std::string& line) const;

  /// Evaluate a parsed request end to end: cache lookup, evaluation on
  /// miss, cache fill, response rendering. Also records the per-request
  /// latency histogram and request counters. With `rt` set, records the
  /// eval/cache phase decomposition and hit/miss into the trace, and
  /// installs the trace's eval-span context around evaluation so
  /// worker-side tracer spans land under the owning request.
  std::string evaluate(const ParsedRequest& req, RequestTrace* rt = nullptr);

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
  std::string evaluate_plan(const JsonValue& body, std::uint64_t* key,
                            bool* cacheable, int* status,
                            RequestTrace* rt) const;
  std::string evaluate_campaign(const JsonValue& body, std::uint64_t* key,
                                bool* cacheable, int* status,
                                RequestTrace* rt) const;
  std::string metrics_body(const JsonValue& body) const;

  ServiceConfig cfg_;
  ResultCache* cache_;
  obs::Registry& reg_;
};

}  // namespace flopsim::serve
