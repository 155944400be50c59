#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"

namespace flopsim::serve {

namespace {

/// A request line longer than this is garbage, not a design-point query;
/// the connection gets one error response and is closed.
constexpr std::size_t kMaxLineBytes = 1 << 20;

bool write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

/// Per-connection state: the socket, the reader-side arrival counter, and
/// the ordered write-back ledger. The last shared_ptr owner (reader thread
/// or in-flight job) closes the socket.
struct Server::Connection {
  /// A completed response awaiting its turn in the ordered flush,
  /// together with the request's trace (finished once flushed).
  struct Pending {
    std::string response;
    std::shared_ptr<RequestTrace> rt;
  };

  int fd = -1;
  std::uint64_t next_seq = 0;  ///< reader-thread only

  std::mutex m;
  std::uint64_t next_write = 0;
  std::map<std::uint64_t, Pending> ready;
  bool dead = false;  ///< a write failed; drop everything else

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

Server::Server(ServerConfig cfg, Service& service)
    : cfg_(std::move(cfg)),
      service_(service),
      telemetry_(cfg_.telemetry, service.registry()),
      requests_(&service.registry().counter("serve.requests")),
      bad_(&service.registry().counter("serve.requests.bad")),
      rejected_(&service.registry().counter("serve.requests.rejected")),
      too_long_(&service.registry().counter("serve.requests.too_long")),
      connections_(&service.registry().counter("serve.connections")),
      queue_depth_(&service.registry().gauge("serve.queue.depth")) {
  cfg_.workers = std::max(1, cfg_.workers);
  if (cfg_.queue_capacity == 0) cfg_.queue_capacity = 1;
}

Server::~Server() {
  request_stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conns_m_);
    for (std::weak_ptr<Connection>& weak : conns_) {
      if (std::shared_ptr<Connection> conn = weak.lock()) {
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  for (std::thread& t : reader_threads_) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (const int fd : wake_) {
    if (fd >= 0) ::close(fd);
  }
  if (!cfg_.unix_path.empty()) ::unlink(cfg_.unix_path.c_str());
}

bool Server::start(std::string* error) {
  // The accept loop sleeps in poll() on the listening socket and this
  // pipe's read end; request_stop() writes one byte to wake it.
  if (::pipe2(wake_, O_CLOEXEC | O_NONBLOCK) != 0) {
    if (error != nullptr) *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  if (!cfg_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg_.unix_path.size() >= sizeof addr.sun_path) {
      if (error != nullptr) *error = "unix socket path too long";
      return false;
    }
    std::memcpy(addr.sun_path, cfg_.unix_path.c_str(),
                cfg_.unix_path.size() + 1);
    ::unlink(cfg_.unix_path.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      if (error != nullptr) {
        *error = std::string("bind ") + cfg_.unix_path + ": " +
                 std::strerror(errno);
      }
      return false;
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      if (error != nullptr) *error = std::strerror(errno);
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      if (error != nullptr) {
        *error = "bind 127.0.0.1:" + std::to_string(cfg_.port) + ": " +
                 std::strerror(errno);
      }
      return false;
    }
  }
  if (::listen(listen_fd_, 16) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  return true;
}

void Server::run() {
  if (listen_fd_ < 0) return;
  accept_thread_ = std::thread([this] { accept_loop(); });
  // The worker "PE array": one drain loop per pool worker. run_chunked
  // with count == workers hands each worker exactly one index; chunk 0
  // runs right here, so `run` itself is worker 0 until shutdown.
  exec::ThreadPool pool(cfg_.workers);
  pool.run_chunked(static_cast<std::size_t>(cfg_.workers),
                   [this](int, std::size_t, std::size_t) { worker_loop(); });
  // Workers only exit once stopping_ is set and the queue is drained.
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conns_m_);
    for (std::weak_ptr<Connection>& weak : conns_) {
      if (std::shared_ptr<Connection> conn = weak.lock()) {
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  for (std::thread& t : reader_threads_) {
    if (t.joinable()) t.join();
  }
  reader_threads_.clear();
}

void Server::request_stop() {
  {
    // stopping_ flips under the queue mutex: once a worker has observed
    // (stopping && empty) and exited, no enqueue can slip in afterwards —
    // try_enqueue checks the flag under the same lock.
    std::lock_guard<std::mutex> lock(queue_m_);
    stopping_.store(true, std::memory_order_relaxed);
  }
  queue_cv_.notify_all();
  if (wake_[1] >= 0) {
    // Never drained: once written, every later poll returns at once. A
    // full pipe already holds a wake-up, so a failed write loses nothing.
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_[1], &byte, 1);
  }
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd[2]{};
    pfd[0].fd = listen_fd_;
    pfd[0].events = POLLIN;
    pfd[1].fd = wake_[0];
    pfd[1].events = POLLIN;
    const int rc = ::poll(pfd, 2, -1);
    if (rc < 0 && errno != EINTR) break;
    if (pfd[1].revents != 0) break;  // request_stop()
    if (rc <= 0 || (pfd[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    connections_->inc();
    std::lock_guard<std::mutex> lock(conns_m_);
    conns_.push_back(conn);
    reader_threads_.emplace_back(
        [this, conn = std::move(conn)]() mutable { reader_loop(conn); });
  }
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  std::string buf;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // EOF or error: in-flight jobs keep `conn` alive
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buf.find('\n', start); nl != std::string::npos;
         nl = buf.find('\n', start)) {
      std::string line = buf.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const std::uint64_t seq = conn->next_seq++;
      // The trace starts here — at socket read, before the envelope is
      // parsed — so queue wait and evaluation are measured against the
      // moment the request's bytes arrived.
      std::shared_ptr<RequestTrace> rt = telemetry_.begin();
      rt->phase_begin(Phase::kParse);
      ParsedRequest req = service_.parse(line);
      rt->phase_end(Phase::kParse);
      if (!req.type.empty()) rt->type = req.type;
      rt->id_json = req.id_json;
      const bool inline_type = req.status != 0 || req.type == "ping" ||
                               req.type == "metrics" ||
                               req.type == "shutdown";
      if (inline_type) {
        // Health probes and malformed lines never queue: a saturated
        // server still answers them. Shutdown acks, then stops accepting.
        const bool is_shutdown = req.status == 0 && req.type == "shutdown";
        // Evaluate on its own statement: passing `rt.get()` and
        // `std::move(rt)` as sibling arguments would leave the evaluation
        // order of the move unspecified.
        std::string response = service_.evaluate(req, rt.get());
        complete(conn, seq, std::move(response), std::move(rt));
        if (is_shutdown) request_stop();
        continue;
      }
      // A cached plan/campaign result is answered here as well, so a hit
      // never waits in (or is rejected by) the admission queue. A miss
      // leaves with its key and evaluation, and is not looked up again.
      if (std::optional<std::string> hit = service_.lookup(req, rt.get());
          hit.has_value()) {
        complete(conn, seq, std::move(*hit), std::move(rt));
        continue;
      }
      Job job;
      job.conn = conn;
      job.seq = seq;
      job.req = std::move(req);
      job.rt = std::move(rt);
      if (!try_enqueue(job)) {
        // Backpressure: the bounded FIFO is full (or the server is
        // draining). Typed rejection, never queued, never evaluated.
        // try_enqueue leaves the job intact on failure, so its trace is
        // still ours to stamp and finish.
        requests_->inc();
        rejected_->inc();
        job.rt->status = 75;
        complete(conn, seq,
                 service_.error_response(
                     job.req.id_json.empty() ? "null" : job.req.id_json, 75,
                     "backpressure: admission queue full, retry"),
                 std::move(job.rt));
      }
    }
    buf.erase(0, start);
    if (buf.size() > kMaxLineBytes) {
      // A request like any other for the counters and the access log:
      // status 2, no id, no type, and only a write phase.
      std::shared_ptr<RequestTrace> rt = telemetry_.begin();
      rt->status = 2;
      requests_->inc();
      bad_->inc();
      too_long_->inc();
      complete(conn, conn->next_seq++,
               service_.error_response("null", 2, "request line too long"),
               std::move(rt));
      return;
    }
  }
}

bool Server::try_enqueue(Job& job) {
  {
    std::lock_guard<std::mutex> lock(queue_m_);
    if (stopping_.load(std::memory_order_relaxed) ||
        queue_.size() >= cfg_.queue_capacity) {
      return false;
    }
    // Queue wait starts at admission; the dequeuing worker ends it. The
    // trace hand-off rides queue_m_'s happens-before edge.
    if (job.rt != nullptr) job.rt->phase_begin(Phase::kQueue);
    queue_.push_back(std::move(job));
    queue_depth_->set(static_cast<double>(queue_.size()));
  }
  queue_cv_.notify_one();
  return true;
}

void Server::worker_loop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_m_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      if (queue_.empty()) return;  // stopping, fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_->set(static_cast<double>(queue_.size()));
    }
    if (job.rt != nullptr) job.rt->phase_end(Phase::kQueue);
    std::string response = service_.evaluate(job.req, job.rt.get());
    complete(job.conn, job.seq, std::move(response), std::move(job.rt));
    job.conn.reset();
  }
}

void Server::complete(const std::shared_ptr<Connection>& conn,
                      std::uint64_t seq, std::string response,
                      std::shared_ptr<RequestTrace> rt) {
  response.push_back('\n');
  // Traces flushed this call, finished below after conn->m is released
  // (telemetry appends never run under a connection lock).
  std::vector<std::shared_ptr<RequestTrace>> finished;
  {
    std::lock_guard<std::mutex> lock(conn->m);
    conn->ready.emplace(seq,
                        Connection::Pending{std::move(response), std::move(rt)});
    // Flush the prefix that is now contiguous: responses reach the client
    // in request order no matter how the queue completed them.
    for (auto it = conn->ready.find(conn->next_write);
         it != conn->ready.end() && it->first == conn->next_write;
         it = conn->ready.find(conn->next_write)) {
      Connection::Pending& p = it->second;
      if (!conn->dead) {
        if (p.rt != nullptr) p.rt->phase_begin(Phase::kWrite);
        const bool ok =
            write_all(conn->fd, p.response.data(), p.response.size());
        if (p.rt != nullptr) p.rt->phase_end(Phase::kWrite);
        if (!ok) conn->dead = true;
      }
      if (p.rt != nullptr) finished.push_back(std::move(p.rt));
      conn->ready.erase(it);
      ++conn->next_write;
    }
  }
  for (const std::shared_ptr<RequestTrace>& done : finished) {
    telemetry_.finish(*done);
  }
}

}  // namespace flopsim::serve
