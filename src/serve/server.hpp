// Layer 3.3 — the flopsim-serve socket front end.
//
// A long-running JSONL request/response server over a Unix-domain or
// loopback-TCP socket. The shape is deliberately the repo's hardware
// discipline transplanted to software: a fixed set of worker "PEs"
// (the exec:: thread pool) fed through a *bounded* admission FIFO.
// When the FIFO is full the server does what a FIFO-coupled PE array
// does — it exerts backpressure immediately instead of buffering
// without bound: the request is rejected right away with a typed
// status-75 response (the exit taxonomy's "interrupted / retry later"
// code) and never starts evaluating.
//
// Concurrency layout:
//
//  * one accept thread;
//  * one reader thread per connection: splits lines, parses envelopes,
//    answers ping/metrics/shutdown and malformed lines inline (a
//    saturated server must still answer its health probes), looks every
//    plan/campaign request up in the cache (Service::lookup) and answers
//    a hit inline too, so hits never queue and are never rejected, and
//    pushes the rest — misses, which carry their key and evaluation so
//    no worker looks them up again, and requests whose fields fail
//    validation — into the bounded queue;
//  * `workers` evaluation loops on an exec::ThreadPool, started once via
//    run_chunked(workers, ...) from a dispatcher thread — the same
//    static-chunk pool the campaign engines use, so serve workers get
//    pinned obs:: thread ids (deterministic metric shards) for free;
//  * per-connection ordered write-back: each request carries its arrival
//    sequence number, and a response — computed, cached, or rejected —
//    is written only when every earlier response of that connection has
//    been written. Clients see strict request order; the queue may
//    complete out of order underneath.
//
// Metrics (obs:: registry, resolved once in the constructor):
// serve.queue.depth gauge, serve.requests.rejected counter (status 75),
// serve.requests.too_long counter (a line past the 1 MiB cap: status 2,
// also counted in serve.requests and serve.requests.bad, then the
// connection closes), serve.connections counter — alongside the
// Service's own serve.requests/latency, the cache's serve.cache.*
// family, and the telemetry hub's serve.phase.* histograms (Layer 3.4).
// Gauge audit:
// serve.queue.depth is written only under queue_m_, always to the exact
// queue_.size() after a push or pop — enqueue and dequeue are its only
// writers, a rejected (status-75) or failed request never enters the
// queue, and workers drain every queued job before exiting, so the gauge
// returns to zero after any burst (locked by a regression test).
//
// Request telemetry (Layer 3.4): every request line gets a RequestTrace
// at socket read (an over-long line gets one when the cap trips); a
// queued request's trace rides the Job through the queue and the worker
// pool, and every trace is finished after its response's ordered
// write-back — see serve/telemetry.hpp for the phase decomposition and
// sink contract.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.hpp"
#include "serve/telemetry.hpp"

namespace flopsim::obs {
class Counter;
class Gauge;
}  // namespace flopsim::obs

namespace flopsim::serve {

struct ServerConfig {
  /// Unix-domain socket path; takes precedence over `port` when set.
  std::string unix_path;
  /// Loopback TCP port (used when unix_path is empty).
  int port = 0;
  /// Evaluation worker count (exec::ThreadPool size), clamped to >= 1.
  int workers = 2;
  /// Bounded admission queue capacity; a request arriving with the queue
  /// full is rejected with status 75. Clamped to >= 1.
  std::size_t queue_capacity = 64;
  /// Request telemetry sinks (phase histograms always record; these add
  /// the JSONL access log and the slow-request span capture).
  TelemetryConfig telemetry;
};

class Server {
 public:
  /// `service` must outlive the server.
  Server(ServerConfig cfg, Service& service);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen. False (with *error set) on socket failures — the
  /// tool turns that into exit 1.
  bool start(std::string* error);

  /// Serve until a shutdown request arrives or request_stop() is called.
  /// Drains queued work before returning.
  void run();

  /// Signal-handler/other-thread safe stop request.
  void request_stop();

  const ServerConfig& config() const { return cfg_; }

  /// The server's telemetry hub (false ok() means a log sink failed to
  /// open; the tool treats that as a startup failure).
  Telemetry& telemetry() { return telemetry_; }

 private:
  struct Connection;
  struct Job {
    std::shared_ptr<Connection> conn;
    std::uint64_t seq = 0;
    ParsedRequest req;
    std::shared_ptr<RequestTrace> rt;
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void worker_loop();
  /// Queue a job (moving from it and marking its queue-wait phase) on
  /// success; false (queue full / draining) leaves `job` untouched so
  /// the caller can still stamp and finish its trace.
  bool try_enqueue(Job& job);
  /// Ordered write-back: stash (response, trace), flush the contiguous
  /// prefix (timing each flushed response's write phase), then finish
  /// the flushed traces.
  void complete(const std::shared_ptr<Connection>& conn, std::uint64_t seq,
                std::string response, std::shared_ptr<RequestTrace> rt);

  ServerConfig cfg_;
  Service& service_;
  Telemetry telemetry_;
  // Resolved once here; no request path takes the registry mutex.
  obs::Counter* requests_;
  obs::Counter* bad_;
  obs::Counter* rejected_;
  obs::Counter* too_long_;
  obs::Counter* connections_;
  obs::Gauge* queue_depth_;
  int listen_fd_ = -1;

  std::atomic<bool> stopping_{false};

  std::mutex queue_m_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;

  std::thread accept_thread_;
  std::mutex conns_m_;
  std::vector<std::weak_ptr<Connection>> conns_;
  std::vector<std::thread> reader_threads_;
};

}  // namespace flopsim::serve
