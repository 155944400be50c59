// Layer 3.4 — request-scoped tracing and telemetry, end to end over real
// sockets: the access log reconstructs every request's decomposition with
// unique trace ids, the slow-request capture emits loadable span trees,
// and — the tentpole's non-negotiable — response bytes are identical with
// telemetry + tracing on or off, at any worker count.
#include "serve/telemetry.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace flopsim::serve {
namespace {

std::string socket_path() {
  static std::atomic<int> next{0};
  return "/tmp/flstel_" + std::to_string(::getpid()) + "_" +
         std::to_string(next.fetch_add(1)) + ".sock";
}

std::string temp_file(const std::string& name) {
  const std::filesystem::path p =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove(p);
  return p.string();
}

std::vector<JsonValue> read_jsonl(const std::string& path) {
  std::vector<JsonValue> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string error;
    const auto v = parse_json(line, &error);
    EXPECT_TRUE(v.has_value()) << path << ": " << error << ": " << line;
    if (v.has_value()) lines.push_back(*v);
  }
  return lines;
}

double num_field(const JsonValue& v, const char* key) {
  const JsonValue* f = v.get(key);
  EXPECT_NE(f, nullptr) << key;
  return f != nullptr && f->is_number() ? f->as_double() : -1.0;
}

std::vector<std::string> request_mix() {
  return {
      "{\"id\": 0, \"type\": \"ping\"}",
      "{\"id\": 1, \"type\": \"plan\", \"op\": \"add\", \"bits\": 32, "
      "\"stages\": 4}",
      "{\"id\": 2, \"type\": \"campaign\", \"op\": \"mul\", \"bits\": 32, "
      "\"stages\": 4, \"faults\": 12, \"vectors\": 8, \"seed\": 5}",
      "{\"id\": 3, \"type\": \"plan\", \"op\": \"cvt\", \"src_bits\": 64, "
      "\"dst_bits\": 32, \"stages\": 2}",
      "this is not json",
      "{\"id\": 5, \"type\": \"plan\", \"op\": \"mul\", \"bits\": 64, "
      "\"stages\": 6}",
  };
}

/// A served round trip: start a server with the given telemetry config,
/// run every line through one connection, stop the server (flushing the
/// logs), and hand back the response bytes.
std::vector<std::string> serve_roundtrip(int workers,
                                         const TelemetryConfig& telemetry,
                                         const std::vector<std::string>& lines,
                                         int passes = 1) {
  obs::Registry reg;
  ResultCache cache({.capacity = 256, .dir = "", .shards = 4}, reg);
  Service service({}, &cache, reg);
  Server server(ServerConfig{.unix_path = socket_path(),
                             .port = 0,
                             .workers = workers,
                             .queue_capacity = 64,
                             .telemetry = telemetry},
                service);
  EXPECT_TRUE(server.telemetry().ok());
  std::string error;
  EXPECT_TRUE(server.start(&error)) << error;
  std::thread runner([&server] { server.run(); });
  std::vector<std::string> responses;
  {
    Client c;
    EXPECT_TRUE(c.connect(server.config().unix_path, 0, 5.0, &error))
        << error;
    for (int pass = 0; pass < passes; ++pass) {
      for (const std::string& line : lines) {
        EXPECT_TRUE(c.send_line(line));
      }
      std::string r;
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (!c.recv_line(&r)) break;
        responses.push_back(r);
      }
    }
  }
  server.request_stop();
  runner.join();
  return responses;
}

TEST(RequestTrace, PhaseClockAccumulatesAndRecordsOverride) {
  obs::Registry reg;
  Telemetry telemetry(reg);
  const auto rt = telemetry.begin();
  EXPECT_NE(rt->trace_id, 0u);
  EXPECT_NE(rt->root_span, 0u);
  EXPECT_FALSE(rt->phase_recorded(Phase::kQueue));
  EXPECT_EQ(rt->phase_us(Phase::kQueue), 0.0);

  rt->phase_begin(Phase::kCache);
  rt->phase_end(Phase::kCache);
  rt->phase_begin(Phase::kCache);  // second begin/end pair accumulates
  rt->phase_end(Phase::kCache);
  EXPECT_TRUE(rt->phase_recorded(Phase::kCache));
  EXPECT_GE(rt->phase_us(Phase::kCache), 0.0);

  rt->phase_record(Phase::kEval, 10.0, 25.0);
  EXPECT_EQ(rt->phase_start_us(Phase::kEval), 10.0);
  EXPECT_EQ(rt->phase_us(Phase::kEval), 25.0);
  rt->phase_record(Phase::kEval, 10.0, -3.0);  // clamps negative to zero
  EXPECT_EQ(rt->phase_us(Phase::kEval), 0.0);

  const auto rt2 = telemetry.begin();
  EXPECT_NE(rt2->trace_id, rt->trace_id);
  telemetry.finish(*rt);
  telemetry.finish(*rt2);
  // Only recorded phases observe into the registry: two finishes, one
  // cache phase and one eval phase between them.
  std::ostringstream os;
  reg.write_jsonl(os);
  EXPECT_NE(os.str().find("serve.phase.cache_us"), std::string::npos);
}

TEST(Telemetry, AccessLogReconstructsEveryRequestWithUniqueTraceIds) {
  const std::string access = temp_file("telemetry_access.jsonl");
  TelemetryConfig tc;
  tc.access_log_path = access;
  const std::vector<std::string> lines = request_mix();
  const std::vector<std::string> responses =
      serve_roundtrip(/*workers=*/2, tc, lines, /*passes=*/2);
  ASSERT_EQ(responses.size(), 2 * lines.size());

  const std::vector<JsonValue> log = read_jsonl(access);
  ASSERT_EQ(log.size(), 2 * lines.size());
  std::set<long long> traces;
  int cache_hits = 0;
  for (const JsonValue& entry : log) {
    const JsonValue* trace = entry.get("trace");
    ASSERT_NE(trace, nullptr);
    traces.insert(trace->as_int(-1));
    const JsonValue* status = entry.get("status");
    ASSERT_NE(status, nullptr);
    const long long s = status->as_int(-1);
    EXPECT_TRUE(s == 0 || s == 1 || s == 2 || s == 75) << s;
    // The full decomposition is present and sane on every line.
    const double total = num_field(entry, "total_us");
    double phase_sum = 0.0;
    for (const char* key :
         {"parse_us", "queue_us", "eval_us", "cache_us", "write_us"}) {
      const double us = num_field(entry, key);
      EXPECT_GE(us, 0.0) << key;
      phase_sum += us;
    }
    EXPECT_GE(total, 0.0);
    EXPECT_LE(phase_sum, total + 1.0) << "phases exceed the request";
    const JsonValue* cache = entry.get("cache");
    ASSERT_NE(cache, nullptr);
    if (cache->as_int(-2) == 1) ++cache_hits;
  }
  // Trace ids are unique across the whole run...
  EXPECT_EQ(traces.size(), log.size());
  // ...the malformed line logged as status 2...
  int bad = 0;
  for (const JsonValue& entry : log) {
    if (entry.get("status")->as_int(-1) == 2) ++bad;
  }
  EXPECT_EQ(bad, 2);  // one per pass
  // ...and the second pass's plan/campaign requests were cache hits.
  EXPECT_GE(cache_hits, 4);
}

TEST(Telemetry, SlowLogCapturesLoadableSpanTreeForEveryRequest) {
  const std::string slow = temp_file("telemetry_slow.jsonl");
  TelemetryConfig tc;
  tc.slow_log_path = slow;
  tc.slow_ms = 0.0;  // capture everything
  const std::vector<std::string> lines = request_mix();
  serve_roundtrip(/*workers=*/2, tc, lines);

  const std::vector<JsonValue> log = read_jsonl(slow);
  ASSERT_EQ(log.size(), lines.size());
  for (const JsonValue& entry : log) {
    const JsonValue* spans = entry.get("spans");
    ASSERT_NE(spans, nullptr);
    ASSERT_TRUE(spans->is_array());
    std::set<long long> ids;
    int roots = 0;
    for (const JsonValue& s : spans->items()) {
      ASSERT_NE(s.get("span"), nullptr);
      ids.insert(s.get("span")->as_int(-1));
      ASSERT_NE(s.get("parent"), nullptr);
      if (s.get("parent")->as_int(-1) == 0) {
        ++roots;
        EXPECT_EQ(s.get("name")->as_string(), "request");
      }
      EXPECT_GE(num_field(s, "start_us"), 0.0);
      EXPECT_GE(num_field(s, "dur_us"), 0.0);
    }
    EXPECT_EQ(roots, 1) << "exactly one root per span tree";
    // Every non-root parent id is a span in the same tree.
    for (const JsonValue& s : spans->items()) {
      const long long parent = s.get("parent")->as_int(-1);
      if (parent != 0) {
        EXPECT_TRUE(ids.count(parent) == 1) << "dangling parent " << parent;
      }
    }
    // A served request decomposes into at least parse + eval + write.
    EXPECT_GE(spans->size(), 4u);
  }
}

TEST(Telemetry, SlowThresholdFiltersFastRequests) {
  const std::string slow = temp_file("telemetry_slow_filtered.jsonl");
  TelemetryConfig tc;
  tc.slow_log_path = slow;
  tc.slow_ms = 60000.0;  // a minute: nothing here is that slow
  serve_roundtrip(/*workers=*/1, tc, {"{\"id\": 0, \"type\": \"ping\"}"});
  EXPECT_TRUE(read_jsonl(slow).empty());
}

TEST(Telemetry, ResponsesByteIdenticalWithTracingOnOrOff) {
  // The determinism lock: full telemetry + an enabled tracer must not
  // change a single response byte, at any worker count. (Fresh caches on
  // both sides, so cache state can't mask a divergence.)
  const std::vector<std::string> lines = request_mix();
  const std::vector<std::string> plain =
      serve_roundtrip(/*workers=*/1, TelemetryConfig{}, lines);
  for (const int workers : {1, 2, 8}) {
    TelemetryConfig tc;
    tc.access_log_path =
        temp_file("telemetry_id_access_" + std::to_string(workers) + ".jsonl");
    tc.slow_log_path =
        temp_file("telemetry_id_slow_" + std::to_string(workers) + ".jsonl");
    obs::Tracer::global().clear();
    obs::Tracer::global().enable();
    const std::vector<std::string> traced =
        serve_roundtrip(workers, tc, lines);
    obs::Tracer::global().enable(false);
    obs::Tracer::global().clear();
    EXPECT_EQ(traced, plain) << "tracing changed bytes at workers="
                             << workers;
  }
}

TEST(Telemetry, InlineHitRecordsNoQueuePhase) {
  // A hit is answered on the reader thread: no queue phase in the
  // histogram or the span tree, and queue_us printed as 0 in the access
  // log, whose schema stays the same for every request.
  const std::string access = temp_file("telemetry_hit_access.jsonl");
  const std::string slow = temp_file("telemetry_hit_slow.jsonl");
  TelemetryConfig tc;
  tc.access_log_path = access;
  tc.slow_log_path = slow;
  tc.slow_ms = 0.0;
  obs::Registry reg;
  ResultCache cache({.capacity = 16, .dir = "", .shards = 4}, reg);
  Service service({}, &cache, reg);
  {
    Server server(ServerConfig{.unix_path = socket_path(),
                               .port = 0,
                               .workers = 2,
                               .queue_capacity = 8,
                               .telemetry = tc},
                  service);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread runner([&server] { server.run(); });
    Client c;
    ASSERT_TRUE(c.connect(server.config().unix_path, 0, 5.0, &error))
        << error;
    // Miss, then hit, one at a time so the second is sure to hit.
    std::string response;
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(c.send_line(
          "{\"id\": 1, \"type\": \"plan\", \"op\": \"add\", "
          "\"bits\": 32, \"stages\": 4}"));
      ASSERT_TRUE(c.recv_line(&response));
    }
    server.request_stop();
    runner.join();
  }

  const std::vector<JsonValue> log = read_jsonl(access);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].get("cache")->as_int(-2), 0);
  EXPECT_EQ(log[1].get("cache")->as_int(-2), 1);
  EXPECT_EQ(num_field(log[1], "queue_us"), 0.0);

  const std::vector<JsonValue> trees = read_jsonl(slow);
  ASSERT_EQ(trees.size(), 2u);
  const auto span_names = [](const JsonValue& tree) {
    std::set<std::string> names;
    for (const JsonValue& s : tree.get("spans")->items()) {
      names.insert(s.get("name")->as_string());
    }
    return names;
  };
  EXPECT_EQ(span_names(trees[0]).count("queue"), 1u) << "the miss queued";
  EXPECT_EQ(span_names(trees[1]),
            (std::set<std::string>{"request", "parse", "eval", "cache",
                                   "write"}));

  // Only the queued miss observed into serve.phase.queue_us.
  std::ostringstream os;
  reg.write_jsonl(os);
  std::istringstream lines(os.str());
  long queue_count = -1;
  for (std::string line; std::getline(lines, line);) {
    const auto m = parse_json(line);
    if (m.has_value() && m->get("metric") != nullptr &&
        m->get("metric")->as_string() == "serve.phase.queue_us") {
      queue_count = m->get("count")->as_int(-1);
    }
  }
  EXPECT_EQ(queue_count, 1);
}

// A miss completes on a worker and a hit inline on the reader thread. A
// client that sends its next request as soon as the miss's response
// arrives must still find the miss logged first: the access log keeps each
// connection's request order, pair after pair.
TEST(Telemetry, AccessLogKeepsRequestOrderAcrossMissHitPairs) {
  const std::string access = temp_file("telemetry_order_access.jsonl");
  TelemetryConfig tc;
  tc.access_log_path = access;
  obs::Registry reg;
  ResultCache cache({.capacity = 64, .dir = "", .shards = 4}, reg);
  Service service({}, &cache, reg);
  constexpr int kPairs = 16;
  {
    Server server(ServerConfig{.unix_path = socket_path(),
                               .port = 0,
                               .workers = 2,
                               .queue_capacity = 8,
                               .telemetry = tc},
                  service);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::thread runner([&server] { server.run(); });
    Client c;
    ASSERT_TRUE(c.connect(server.config().unix_path, 0, 5.0, &error))
        << error;
    std::string response;
    for (int pair = 0; pair < kPairs; ++pair) {
      // A plan no earlier pair asked for (a miss), then the same plan (a
      // hit), each sent once the previous response is in.
      const std::string plan =
          "\"type\": \"plan\", \"op\": \"add\", \"bits\": " +
          std::to_string(pair % 2 == 0 ? 32 : 64) +
          ", \"stages\": " + std::to_string(1 + pair / 2) + "}";
      for (int k = 0; k < 2; ++k) {
        ASSERT_TRUE(c.send_line("{\"id\": " + std::to_string(2 * pair + k) +
                                ", " + plan));
        ASSERT_TRUE(c.recv_line(&response));
      }
    }
    server.request_stop();
    runner.join();
  }

  const std::vector<JsonValue> log = read_jsonl(access);
  ASSERT_EQ(log.size(), static_cast<std::size_t>(2 * kPairs));
  for (int i = 0; i < 2 * kPairs; ++i) {
    SCOPED_TRACE("line " + std::to_string(i));
    EXPECT_EQ(log[static_cast<std::size_t>(i)].get("id")->as_int(-1), i);
    EXPECT_EQ(log[static_cast<std::size_t>(i)].get("cache")->as_int(-2),
              i % 2);
  }
}

TEST(Telemetry, BatchModeHandleLineLogsParseAndEvalPhases) {
  const std::string access = temp_file("telemetry_batch_access.jsonl");
  obs::Registry reg;
  ResultCache cache({.capacity = 16, .dir = "", .shards = 4}, reg);
  Service service({}, &cache, reg);
  TelemetryConfig tc;
  tc.access_log_path = access;
  Telemetry telemetry(tc, reg);
  ASSERT_TRUE(telemetry.ok());
  const std::string with =
      service.handle_line("{\"id\": 1, \"type\": \"ping\"}", &telemetry);
  const std::string without =
      service.handle_line("{\"id\": 1, \"type\": \"ping\"}");
  EXPECT_EQ(with, without);

  const std::vector<JsonValue> log = read_jsonl(access);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].get("type")->as_string(), "ping");
  EXPECT_GE(num_field(log[0], "parse_us"), 0.0);
  EXPECT_GE(num_field(log[0], "eval_us"), 0.0);
  // Batch mode has no queue or socket write phases.
  EXPECT_EQ(num_field(log[0], "queue_us"), 0.0);
  EXPECT_EQ(num_field(log[0], "write_us"), 0.0);
  // Phase histograms landed in the registry for the metrics endpoint.
  std::ostringstream os;
  reg.write_jsonl(os);
  EXPECT_NE(os.str().find("serve.phase.parse_us"), std::string::npos);
}

TEST(Telemetry, UnopenableLogPathReportsNotOk) {
  obs::Registry reg;
  TelemetryConfig tc;
  tc.access_log_path = "/nonexistent-dir/access.jsonl";
  Telemetry telemetry(tc, reg);
  EXPECT_FALSE(telemetry.ok());
}

}  // namespace
}  // namespace flopsim::serve
