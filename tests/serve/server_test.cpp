// The socket front end, exercised over real Unix-domain sockets: request
// order preserved per connection, concurrent clients at 1/2/8 evaluation
// workers byte-identical (the serve-side determinism contract), bounded
// admission queue rejecting with status 75 under flood, cache hits
// answered on the reader thread (even with the queue full), the counted
// line cap, replay-twice byte identity through the cache, and shutdown
// via request or request_stop(), which wakes the accept loop at once.
// Threaded end to end, so the suite rides in the tsan sweep.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "serve/telemetry.hpp"

namespace flopsim::serve {
namespace {

/// Socket paths must stay under the ~108-byte sockaddr_un limit, so the
/// harness builds short /tmp names instead of using the test temp dir.
std::string socket_path() {
  static std::atomic<int> next{0};
  return "/tmp/flssrv_" + std::to_string(::getpid()) + "_" +
         std::to_string(next.fetch_add(1)) + ".sock";
}

int status_of(const std::string& response) {
  const auto v = parse_json(response);
  if (!v.has_value() || !v->is_object()) return -1;
  const JsonValue* s = v->get("status");
  return s != nullptr ? static_cast<int>(s->as_int(-1)) : -1;
}

/// A cache miss that keeps a worker busy for tens of milliseconds (an
/// n=8 matmul campaign; a distinct seed per id, so every id misses).
std::string slow_miss(int id) {
  return "{\"id\": " + std::to_string(id) +
         ", \"type\": \"campaign\", \"kernel\": \"matmul\", \"n\": 8, "
         "\"bits\": 32, \"faults\": 64, \"seed\": " +
         std::to_string(id) + "}";
}

/// Polls `done` every millisecond, for up to ten seconds.
template <class Pred>
bool eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A running server with its own registry, cache, and service.
class Harness {
 public:
  explicit Harness(int workers, std::size_t queue_capacity = 64,
                   TelemetryConfig telemetry = {})
      : cache_({.capacity = 256, .dir = "", .shards = 4}, reg_),
        service_({}, &cache_, reg_),
        server_(
            ServerConfig{.unix_path = socket_path(),
                         .port = 0,
                         .workers = workers,
                         .queue_capacity = queue_capacity,
                         .telemetry = std::move(telemetry)},
            service_) {
    std::string error;
    ok_ = server_.start(&error);
    EXPECT_TRUE(ok_) << error;
    if (ok_) runner_ = std::thread([this] { server_.run(); });
  }

  ~Harness() {
    server_.request_stop();
    if (runner_.joinable()) runner_.join();
  }

  bool ok() const { return ok_; }
  const std::string& path() const { return server_.config().unix_path; }
  obs::Registry& registry() { return reg_; }

  Client connect() {
    Client c;
    std::string error;
    EXPECT_TRUE(c.connect(path(), 0, 5.0, &error)) << error;
    return c;
  }

  /// Send every line, then read one response per line, in order.
  std::vector<std::string> roundtrip(Client& c,
                                     const std::vector<std::string>& lines) {
    for (const std::string& line : lines) {
      EXPECT_TRUE(c.send_line(line));
    }
    std::vector<std::string> responses;
    std::string r;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (!c.recv_line(&r)) break;
      responses.push_back(r);
    }
    EXPECT_EQ(responses.size(), lines.size());
    return responses;
  }

 private:
  obs::Registry reg_;
  ResultCache cache_;
  Service service_;
  Server server_;
  std::thread runner_;
  bool ok_ = false;
};

std::vector<std::string> request_mix() {
  return {
      "{\"id\": 0, \"type\": \"ping\"}",
      "{\"id\": 1, \"type\": \"plan\", \"op\": \"add\", \"bits\": 32, "
      "\"stages\": 4}",
      "{\"id\": 2, \"type\": \"campaign\", \"op\": \"mul\", \"bits\": 32, "
      "\"stages\": 4, \"faults\": 12, \"vectors\": 8, \"seed\": 5}",
      "{\"id\": 3, \"type\": \"plan\", \"op\": \"cvt\", \"src_bits\": 64, "
      "\"dst_bits\": 32, \"stages\": 2}",
      "{\"id\": 4, \"type\": \"campaign\", \"kernel\": \"matmul\", "
      "\"n\": 4, \"bits\": 32, \"faults\": 8, \"seed\": 11}",
      "{\"id\": 5, \"type\": \"plan\", \"op\": \"mul\", \"bits\": 64, "
      "\"stages\": 6}",
  };
}

TEST(Server, PingOverSocketMatchesBatchGolden) {
  Harness h(/*workers=*/2);
  ASSERT_TRUE(h.ok());
  Client c = h.connect();
  ASSERT_TRUE(c.send_line("{\"id\": 1, \"type\": \"ping\"}"));
  std::string response;
  ASSERT_TRUE(c.recv_line(&response));
  EXPECT_EQ(response,
            "{\"id\": 1, \"status\": 0, \"result\": {\"pong\": true}}");
}

TEST(Server, ResponsesKeepRequestOrderPerConnection) {
  // The queue may complete out of order underneath (cheap pings behind an
  // expensive campaign); the connection must still see strict order.
  Harness h(/*workers=*/4);
  ASSERT_TRUE(h.ok());
  Client c = h.connect();
  std::vector<std::string> lines;
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 0) {
      lines.push_back("{\"id\": " + std::to_string(i) +
                      ", \"type\": \"campaign\", \"op\": \"add\", "
                      "\"bits\": 32, \"stages\": 4, \"faults\": 8, "
                      "\"vectors\": 8, \"seed\": " + std::to_string(i) +
                      "}");
    } else {
      lines.push_back("{\"id\": " + std::to_string(i) +
                      ", \"type\": \"ping\"}");
    }
  }
  const std::vector<std::string> responses = h.roundtrip(c, lines);
  ASSERT_EQ(responses.size(), lines.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const auto v = parse_json(responses[i]);
    ASSERT_TRUE(v.has_value()) << responses[i];
    ASSERT_NE(v->get("id"), nullptr);
    EXPECT_EQ(v->get("id")->as_int(-1), static_cast<long long>(i));
  }
}

TEST(Server, ConcurrentClientsDeterministicAcrossWorkerCounts) {
  // Same requests, three concurrent connections, at 1/2/8 workers: every
  // client of every configuration reads the same response bytes. This is
  // the campaign engine's 1/2/8 determinism suite transplanted to the
  // serving layer.
  const std::vector<std::string> lines = request_mix();
  std::vector<std::vector<std::string>> per_config;
  for (const int workers : {1, 2, 8}) {
    Harness h(workers);
    ASSERT_TRUE(h.ok());
    constexpr int kClients = 3;
    std::vector<std::vector<std::string>> per_client(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        Client c = h.connect();
        per_client[static_cast<std::size_t>(i)] = h.roundtrip(c, lines);
      });
    }
    for (std::thread& t : threads) t.join();
    for (int i = 1; i < kClients; ++i) {
      EXPECT_EQ(per_client[static_cast<std::size_t>(i)], per_client[0])
          << "client " << i << " diverged at workers=" << workers;
    }
    per_config.push_back(per_client[0]);
  }
  EXPECT_EQ(per_config[1], per_config[0]) << "workers=2 diverged from 1";
  EXPECT_EQ(per_config[2], per_config[0]) << "workers=8 diverged from 1";
}

TEST(Server, FloodAgainstTinyQueueIsRejectedWithStatus75) {
  // workers=1, queue=1: the reader outruns the single evaluator by
  // orders of magnitude, so a 16-request burst must trip backpressure.
  // Every request still gets a response — typed rejection, not a stall.
  Harness h(/*workers=*/1, /*queue_capacity=*/1);
  ASSERT_TRUE(h.ok());
  Client c = h.connect();
  std::vector<std::string> lines;
  for (int i = 0; i < 16; ++i) {
    lines.push_back("{\"id\": " + std::to_string(i) +
                    ", \"type\": \"campaign\", \"op\": \"mul\", "
                    "\"bits\": 32, \"stages\": 4, \"faults\": 16, "
                    "\"vectors\": 8, \"seed\": " + std::to_string(i) + "}");
  }
  const std::vector<std::string> responses = h.roundtrip(c, lines);
  ASSERT_EQ(responses.size(), lines.size());
  int ok = 0;
  int rejected = 0;
  for (const std::string& r : responses) {
    const int status = status_of(r);
    if (status == 0) ++ok;
    if (status == 75) ++rejected;
    EXPECT_TRUE(status == 0 || status == 75) << r;
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1);
  EXPECT_GE(h.registry().counter("serve.requests.rejected").value(), 1);
}

TEST(Server, QueueDepthGaugeReturnsToZeroAfterRejectionBurst) {
  // The serve.queue.depth audit: the gauge is written only under the
  // queue mutex, always to the exact queue size, and neither status-75
  // rejections (never enqueued) nor requests that fail during evaluation
  // (dequeued like any other) may leak depth. Flood a 1-worker/1-slot
  // server with a mix of slow campaigns and campaigns that fail with
  // status 2 at evaluation time, then verify the gauge drained to zero.
  Harness h(/*workers=*/1, /*queue_capacity=*/1);
  ASSERT_TRUE(h.ok());
  Client c = h.connect();
  std::vector<std::string> lines;
  for (int i = 0; i < 24; ++i) {
    if (i % 4 == 3) {
      // Envelope-valid (so it queues) but fails in evaluate_campaign.
      lines.push_back("{\"id\": " + std::to_string(i) +
                      ", \"type\": \"campaign\", \"op\": \"add\", "
                      "\"bits\": 32, \"stages\": 4, "
                      "\"scheme\": \"bogus\"}");
    } else {
      lines.push_back("{\"id\": " + std::to_string(i) +
                      ", \"type\": \"campaign\", \"op\": \"mul\", "
                      "\"bits\": 32, \"stages\": 4, \"faults\": 16, "
                      "\"vectors\": 8, \"seed\": " + std::to_string(i) +
                      "}");
    }
  }
  const std::vector<std::string> responses = h.roundtrip(c, lines);
  ASSERT_EQ(responses.size(), lines.size());
  int rejected = 0;
  for (const std::string& r : responses) {
    const int status = status_of(r);
    EXPECT_TRUE(status == 0 || status == 2 || status == 75) << r;
    if (status == 75) ++rejected;
  }
  EXPECT_GE(rejected, 1);
  // Every response has been written, so every queued job was dequeued;
  // the last dequeue set the gauge to the then-current queue size, and
  // with nothing left in flight that size was zero.
  EXPECT_EQ(h.registry().gauge("serve.queue.depth").value(), 0.0);
}

TEST(Server, ConcurrentMetricsReadsDuringEvalAreCleanAtAnyWorkerCount) {
  // Satellite of the tracing PR: the metrics endpoint (inline on the
  // reader thread) snapshots every histogram shard while evaluation
  // workers are observing into them. Run it against in-flight campaigns
  // at 1/2/8 workers — under TSan in CI this doubles as a race check on
  // the registry's relaxed-atomic shards and the telemetry phase
  // histograms.
  for (const int workers : {1, 2, 8}) {
    Harness h(workers);
    ASSERT_TRUE(h.ok());
    Client flooder = h.connect();
    constexpr int kCampaigns = 10;
    for (int i = 0; i < kCampaigns; ++i) {
      ASSERT_TRUE(flooder.send_line(
          "{\"id\": " + std::to_string(i) +
          ", \"type\": \"campaign\", \"op\": \"add\", \"bits\": 32, "
          "\"stages\": 4, \"faults\": 16, \"vectors\": 8, \"seed\": " +
          std::to_string(i) + "}"));
    }
    std::atomic<int> metrics_ok{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
      readers.emplace_back([&h, &metrics_ok] {
        Client c = h.connect();
        std::string response;
        for (int i = 0; i < 8; ++i) {
          if (!c.send_line("{\"id\": 7, \"type\": \"metrics\"}")) return;
          if (!c.recv_line(&response)) return;
          if (status_of(response) == 0) metrics_ok.fetch_add(1);
        }
      });
    }
    for (std::thread& t : readers) t.join();
    EXPECT_EQ(metrics_ok.load(), 16) << "workers=" << workers;
    std::string response;
    for (int i = 0; i < kCampaigns; ++i) {
      if (!flooder.recv_line(&response)) break;
    }
  }
}

TEST(Server, PrometheusMetricsFormatOverSocket) {
  Harness h(/*workers=*/2);
  ASSERT_TRUE(h.ok());
  Client c = h.connect();
  ASSERT_TRUE(c.send_line(
      "{\"id\": 1, \"type\": \"metrics\", \"format\": \"prometheus\"}"));
  std::string response;
  ASSERT_TRUE(c.recv_line(&response));
  EXPECT_EQ(status_of(response), 0);
  const auto v = parse_json(response);
  ASSERT_TRUE(v.has_value());
  const JsonValue* result = v->get("result");
  ASSERT_NE(result, nullptr);
  const JsonValue* text = result->get("text");
  ASSERT_NE(text, nullptr);
  EXPECT_NE(text->as_string().find("# TYPE serve_requests counter"),
            std::string::npos);
  EXPECT_NE(text->as_string().find("serve_phase_parse_us_bucket{le="),
            std::string::npos);
  // An unknown format is a usage error, not a silent JSON fallback.
  ASSERT_TRUE(c.send_line(
      "{\"id\": 2, \"type\": \"metrics\", \"format\": \"xml\"}"));
  ASSERT_TRUE(c.recv_line(&response));
  EXPECT_EQ(status_of(response), 2);
}

TEST(Server, SaturatedServerStillAnswersPing) {
  // Probes are routed inline by the reader, never through the bounded
  // queue — a saturated server must stay observable.
  Harness h(/*workers=*/1, /*queue_capacity=*/1);
  ASSERT_TRUE(h.ok());
  Client flooder = h.connect();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(flooder.send_line(
        "{\"id\": " + std::to_string(i) +
        ", \"type\": \"campaign\", \"op\": \"add\", \"bits\": 64, "
        "\"stages\": 8, \"faults\": 32, \"vectors\": 16, \"seed\": " +
        std::to_string(i) + "}"));
  }
  Client prober = h.connect();
  ASSERT_TRUE(prober.send_line("{\"id\": 99, \"type\": \"ping\"}"));
  std::string response;
  ASSERT_TRUE(prober.recv_line(&response));
  EXPECT_EQ(status_of(response), 0);
  // Drain the flood so the harness shuts down cleanly.
  for (int i = 0; i < 8; ++i) {
    if (!flooder.recv_line(&response)) break;
  }
}

TEST(Server, CachedRequestIsAnsweredWhileTheQueueIsFull) {
  // Hits are answered on the reader thread, so the one semantic change
  // is this: with the single worker busy and the one queue slot taken, a
  // cached request still gets its result (status 0), not status 75.
  Harness h(/*workers=*/1, /*queue_capacity=*/1);
  ASSERT_TRUE(h.ok());
  const std::string cached_line =
      "{\"id\": 1, \"type\": \"plan\", \"op\": \"add\", \"bits\": 32, "
      "\"stages\": 4}";
  Client c = h.connect();
  const std::vector<std::string> first = h.roundtrip(c, {cached_line});
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(status_of(first[0]), 0);

  Client flooder = h.connect();
  constexpr int kFlood = 4;
  for (int i = 0; i < kFlood; ++i) {
    ASSERT_TRUE(flooder.send_line(slow_miss(100 + i)));
  }
  // A rejection means the worker is busy and the queue slot is taken.
  const obs::Counter& rejected =
      h.registry().counter("serve.requests.rejected");
  ASSERT_TRUE(eventually([&] { return rejected.value() >= 1; }));
  const std::vector<std::string> again = h.roundtrip(c, {cached_line});
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0], first[0]);

  long flood_rejected = 0;
  std::string response;
  for (int i = 0; i < kFlood; ++i) {
    ASSERT_TRUE(flooder.recv_line(&response));
    if (status_of(response) == 75) ++flood_rejected;
  }
  // Every rejection was the flood's: the hit never met the queue.
  EXPECT_GE(flood_rejected, 1);
  EXPECT_EQ(rejected.value(), flood_rejected);
}

TEST(Server, HitPipelinedBehindASlowMissKeepsItsPlace) {
  // The hit is answered on the reader thread while the miss ahead of it
  // is still evaluating; the ordered write-back holds it until the miss
  // has been written.
  Harness h(/*workers=*/2);
  ASSERT_TRUE(h.ok());
  const std::string cached_line =
      "{\"id\": 1, \"type\": \"plan\", \"op\": \"mul\", \"bits\": 64, "
      "\"stages\": 6}";
  Client c = h.connect();
  const std::vector<std::string> cached = h.roundtrip(c, {cached_line});
  ASSERT_EQ(cached.size(), 1u);
  const std::vector<std::string> responses =
      h.roundtrip(c, {slow_miss(7), cached_line});
  ASSERT_EQ(responses.size(), 2u);
  const auto miss = parse_json(responses[0]);
  ASSERT_TRUE(miss.has_value() && miss->get("id") != nullptr);
  EXPECT_EQ(miss->get("id")->as_int(-1), 7);
  EXPECT_EQ(status_of(responses[0]), 0);
  EXPECT_EQ(responses[1], cached[0]);
}

TEST(Server, EveryWellFormedPlanOrCampaignIsLookedUpOnce) {
  // A miss is looked up on the reader thread and carries that to the
  // worker, which does not look it up again: hits + misses count the
  // well-formed plan/campaign requests exactly. Fields that fail
  // validation are not a lookup.
  Harness h(/*workers=*/2);
  ASSERT_TRUE(h.ok());
  std::vector<std::string> lines = request_mix();  // 5 plan/campaign
  lines.push_back(
      "{\"id\": 6, \"type\": \"campaign\", \"op\": \"add\", \"bits\": 32, "
      "\"stages\": 4, \"scheme\": \"bogus\"}");
  Client c = h.connect();
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<std::string> responses = h.roundtrip(c, lines);
    ASSERT_EQ(responses.size(), lines.size());
    EXPECT_EQ(status_of(responses.back()), 2);
  }
  EXPECT_EQ(h.registry().counter("serve.cache.miss").value(), 5);
  EXPECT_EQ(h.registry().counter("serve.cache.hit").value(), 5);
  EXPECT_EQ(h.registry().counter("serve.requests").value(),
            static_cast<long>(2 * lines.size()));
}

TEST(Server, OverlongLineIsCountedLoggedAndClosed) {
  // A line past the 1 MiB cap gets one status-2 error, then the
  // connection closes; it is counted and logged like any bad request.
  const std::filesystem::path access =
      std::filesystem::path(::testing::TempDir()) / "server_too_long.jsonl";
  std::filesystem::remove(access);
  TelemetryConfig tc;
  tc.access_log_path = access.string();
  {
    Harness h(/*workers=*/1, /*queue_capacity=*/64, tc);
    ASSERT_TRUE(h.ok());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, h.path().c_str(), h.path().size() + 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    // One byte past the cap and no newline: the server reads all of it.
    const std::string junk((1 << 20) + 1, 'x');
    std::size_t sent = 0;
    while (sent < junk.size()) {
      const ssize_t n = ::send(fd, junk.data() + sent, junk.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
    std::string received;
    char chunk[256];
    for (ssize_t n; (n = ::recv(fd, chunk, sizeof chunk, 0)) > 0;) {
      received.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    // Everything up to the server's close: exactly the one error line.
    EXPECT_EQ(received,
              "{\"id\": null, \"status\": 2, "
              "\"error\": \"request line too long\"}\n");
    EXPECT_EQ(h.registry().counter("serve.requests").value(), 1);
    EXPECT_EQ(h.registry().counter("serve.requests.bad").value(), 1);
    EXPECT_EQ(h.registry().counter("serve.requests.too_long").value(), 1);
  }
  std::ifstream in(access);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const auto entry = parse_json(line);
  ASSERT_TRUE(entry.has_value()) << line;
  EXPECT_EQ(status_of(line), 2);
  EXPECT_EQ(entry->get("id")->kind(), JsonValue::Kind::kNull);
  EXPECT_FALSE(std::getline(in, line)) << "one access-log line only";
}

TEST(Server, ReplayTwiceIsByteIdenticalAndServedFromCache) {
  Harness h(/*workers=*/2);
  ASSERT_TRUE(h.ok());
  const std::vector<std::string> lines = request_mix();
  Client c = h.connect();
  const std::vector<std::string> pass1 = h.roundtrip(c, lines);
  const long hits_before =
      h.registry().counter("serve.cache.hit").value();
  const std::vector<std::string> pass2 = h.roundtrip(c, lines);
  EXPECT_EQ(pass1, pass2);
  // Everything but ping is cacheable: the second pass is all hits.
  EXPECT_GE(h.registry().counter("serve.cache.hit").value(),
            hits_before + static_cast<long>(lines.size()) - 1);
}

TEST(Server, ShutdownRequestStopsTheServer) {
  obs::Registry reg;
  ResultCache cache({.capacity = 16, .dir = "", .shards = 4}, reg);
  Service service({}, &cache, reg);
  Server server(ServerConfig{.unix_path = socket_path(),
                             .port = 0,
                             .workers = 2,
                             .queue_capacity = 8},
                service);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::thread runner([&server] { server.run(); });
  Client c;
  ASSERT_TRUE(c.connect(server.config().unix_path, 0, 5.0, &error)) << error;
  ASSERT_TRUE(c.send_line("{\"id\": 1, \"type\": \"shutdown\"}"));
  std::string response;
  ASSERT_TRUE(c.recv_line(&response));
  EXPECT_EQ(status_of(response), 0);
  runner.join();  // run() must return on its own — no request_stop() here
}

// request_stop() wakes the accept loop at once, so a server stops as soon
// as its queue drains: twenty start / ping / stop / join cycles fit in a
// second (a loop that polled for the stop would wait out its timeout on
// every one).
TEST(Server, StopWakesTheAcceptLoop) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    Harness h(/*workers=*/1);
    ASSERT_TRUE(h.ok());
    Client c = h.connect();
    ASSERT_TRUE(c.send_line("{\"id\": 1, \"type\": \"ping\"}"));
    std::string response;
    ASSERT_TRUE(c.recv_line(&response));
    EXPECT_EQ(status_of(response), 0);
  }  // ~Harness: request_stop(), then join run()
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

TEST(Server, TcpLoopbackWorksToo) {
  obs::Registry reg;
  ResultCache cache({.capacity = 16, .dir = "", .shards = 4}, reg);
  Service service({}, &cache, reg);
  // Port chosen from the ephemeral-adjacent range; retry a few in case
  // of a collision with another process.
  for (int port = 38741; port < 38761; ++port) {
    Server server(ServerConfig{.unix_path = "",
                               .port = port,
                               .workers = 1,
                               .queue_capacity = 8},
                  service);
    std::string error;
    if (!server.start(&error)) continue;
    std::thread runner([&server] { server.run(); });
    Client c;
    ASSERT_TRUE(c.connect("", port, 5.0, &error)) << error;
    ASSERT_TRUE(c.send_line("{\"id\": 1, \"type\": \"ping\"}"));
    std::string response;
    ASSERT_TRUE(c.recv_line(&response));
    EXPECT_EQ(status_of(response), 0);
    server.request_stop();
    runner.join();
    return;
  }
  FAIL() << "no loopback port available";
}

}  // namespace
}  // namespace flopsim::serve
