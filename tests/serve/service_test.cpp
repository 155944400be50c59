// The request/response contract of the serve layer, pinned at the byte
// level: golden envelopes for the cheap request types, the status-2
// rejection taxonomy (malformed JSON, unknown types/fields, bad values),
// and the cache contract — a hit after a miss returns byte-identical
// response bytes, and two independent services agree byte-for-byte on
// the same request (what makes the cache sound in the first place).
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"

namespace flopsim::serve {
namespace {

/// A service with its own registry and (optionally) cache.
struct Rig {
  obs::Registry reg;
  ResultCache cache{{.capacity = 64, .dir = "", .shards = 4}, reg};
  Service service{{}, &cache, reg};
  Service uncached{{}, nullptr, reg};
};

int status_of(const std::string& response) {
  const auto v = parse_json(response);
  if (!v.has_value() || !v->is_object()) return -1;
  const JsonValue* s = v->get("status");
  return s != nullptr ? static_cast<int>(s->as_int(-1)) : -1;
}

TEST(Service, PingGolden) {
  Rig rig;
  EXPECT_EQ(rig.service.handle_line("{\"id\": 1, \"type\": \"ping\"}"),
            "{\"id\": 1, \"status\": 0, \"result\": {\"pong\": true}}");
}

TEST(Service, IdEchoesAllJsonShapes) {
  Rig rig;
  // String and absent ids echo back exactly as sent (absent -> null).
  EXPECT_EQ(rig.service.handle_line("{\"id\": \"abc\", \"type\": \"ping\"}"),
            "{\"id\": \"abc\", \"status\": 0, \"result\": {\"pong\": true}}");
  EXPECT_EQ(rig.service.handle_line("{\"type\": \"ping\"}"),
            "{\"id\": null, \"status\": 0, \"result\": {\"pong\": true}}");
  // Non-int/string ids are a schema violation, not a crash.
  EXPECT_EQ(status_of(rig.service.handle_line(
                "{\"id\": [1], \"type\": \"ping\"}")),
            2);
}

TEST(Service, MalformedLinesGetStatusTwo) {
  Rig rig;
  EXPECT_EQ(rig.service.handle_line("not json"),
            "{\"id\": null, \"status\": 2, \"error\": \"malformed JSON: "
            "offset 0: invalid literal\"}");
  EXPECT_EQ(status_of(rig.service.handle_line("[1, 2]")), 2);
  EXPECT_EQ(status_of(rig.service.handle_line("{\"id\": 1}")), 2);
  EXPECT_EQ(status_of(rig.service.handle_line(
                "{\"id\": 1, \"type\": \"frobnicate\"}")),
            2);
}

TEST(Service, UnknownFieldsAreRejectedNotIgnored) {
  // A typo'd field silently ignored would poison the cache key space:
  // two semantically different requests would share one key.
  Rig rig;
  const std::string resp = rig.service.handle_line(
      "{\"id\": 1, \"type\": \"plan\", \"op\": \"add\", \"bits\": 32, "
      "\"stages\": 4, \"stage\": 5}");
  EXPECT_EQ(status_of(resp), 2);
  EXPECT_NE(resp.find("unknown field: stage"), std::string::npos);
}

TEST(Service, BadValuesAreStatusTwo) {
  Rig rig;
  // bits outside the paper's format set
  EXPECT_EQ(status_of(rig.service.handle_line(
                "{\"type\": \"plan\", \"op\": \"add\", \"bits\": 33, "
                "\"stages\": 2}")),
            2);
  // unknown op
  EXPECT_EQ(status_of(rig.service.handle_line(
                "{\"type\": \"plan\", \"op\": \"frob\", \"bits\": 32, "
                "\"stages\": 2}")),
            2);
  // unknown hardening scheme
  EXPECT_EQ(status_of(rig.service.handle_line(
                "{\"type\": \"plan\", \"op\": \"add\", \"bits\": 32, "
                "\"stages\": 2, \"harden\": \"bogus\"}")),
            2);
}

TEST(Service, PlanHitAfterMissIsByteIdentical) {
  Rig rig;
  const std::string line =
      "{\"id\": 9, \"type\": \"plan\", \"op\": \"mul\", \"bits\": 64, "
      "\"stages\": 6}";
  const std::string fresh = rig.service.handle_line(line);
  const long hits0 = rig.reg.counter("serve.cache.hit").value();
  const std::string cached = rig.service.handle_line(line);
  EXPECT_EQ(fresh, cached);
  EXPECT_EQ(rig.reg.counter("serve.cache.hit").value(), hits0 + 1);
  EXPECT_EQ(status_of(fresh), 0);
}

TEST(Service, CampaignHitAfterMissIsByteIdentical) {
  Rig rig;
  const std::string line =
      "{\"id\": 3, \"type\": \"campaign\", \"op\": \"add\", \"bits\": 32, "
      "\"stages\": 4, \"faults\": 16, \"vectors\": 8, \"seed\": 7}";
  const std::string fresh = rig.service.handle_line(line);
  const std::string cached = rig.service.handle_line(line);
  EXPECT_EQ(fresh, cached);
  EXPECT_EQ(status_of(fresh), 0);
  EXPECT_GE(rig.reg.counter("serve.cache.hit").value(), 1);
}

TEST(Service, CacheKeyIgnoresIdButNotParams) {
  Rig rig;
  // Different id, same semantics: one evaluation, one hit — only the
  // echoed id differs between the responses.
  const std::string a = rig.service.handle_line(
      "{\"id\": 1, \"type\": \"plan\", \"op\": \"add\", \"bits\": 32, "
      "\"stages\": 4}");
  const std::string b = rig.service.handle_line(
      "{\"id\": 2, \"type\": \"plan\", \"op\": \"add\", \"bits\": 32, "
      "\"stages\": 4}");
  EXPECT_EQ(rig.reg.counter("serve.cache.hit").value(), 1);
  EXPECT_EQ(a.substr(a.find("\"status\"")), b.substr(b.find("\"status\"")));
  // Different stages: a different design point, a different entry.
  rig.service.handle_line(
      "{\"id\": 3, \"type\": \"plan\", \"op\": \"add\", \"bits\": 32, "
      "\"stages\": 5}");
  EXPECT_EQ(rig.reg.counter("serve.cache.hit").value(), 1);
  EXPECT_EQ(rig.cache.size(), 2u);
}

TEST(Service, IndependentServicesAgreeByteForByte) {
  // Determinism across instances is what makes a *shared* disk cache
  // sound: any server may fill an entry any other may serve.
  const std::string line =
      "{\"type\": \"campaign\", \"kernel\": \"matmul\", \"n\": 4, "
      "\"bits\": 32, \"faults\": 12, \"seed\": 99}";
  Rig a;
  Rig b;
  EXPECT_EQ(a.uncached.handle_line(line), b.uncached.handle_line(line));
}

TEST(Service, AutoDepthPlanReportsSelection) {
  Rig rig;
  const std::string resp = rig.service.handle_line(
      "{\"type\": \"plan\", \"op\": \"add\", \"bits\": 32}");
  EXPECT_EQ(status_of(resp), 0);
  const auto v = parse_json(resp);
  ASSERT_TRUE(v.has_value());
  const JsonValue* result = v->get("result");
  ASSERT_NE(result, nullptr);
  const JsonValue* sel = result->get("selection");
  ASSERT_NE(sel, nullptr) << resp;
  ASSERT_NE(sel->get("opt_stages"), nullptr);
  const long long opt = sel->get("opt_stages")->as_int();
  EXPECT_GE(opt, 1);
  EXPECT_EQ(result->get("stages")->as_int(), opt);
}

TEST(Service, MatmulCampaignReportsDroppedTrials) {
  Rig rig;
  const std::string resp = rig.service.handle_line(
      "{\"type\": \"campaign\", \"kernel\": \"matmul\", \"n\": 4, "
      "\"bits\": 32, \"faults\": 8, \"seed\": 1}");
  EXPECT_EQ(status_of(resp), 0);
  const auto v = parse_json(resp);
  ASSERT_TRUE(v.has_value());
  const JsonValue* result = v->get("result");
  ASSERT_NE(result, nullptr);
  // The fallback-accounting contract: the field is always present (0 on
  // a full campaign), never silently absent.
  ASSERT_NE(result->get("dropped_trials"), nullptr) << resp;
  EXPECT_GE(result->get("dropped_trials")->as_int(-1), 0);
}

TEST(Service, MetricsIsNeverCached) {
  Rig rig;
  const std::string r1 =
      rig.service.handle_line("{\"type\": \"metrics\"}");
  EXPECT_EQ(status_of(r1), 0);
  EXPECT_NE(r1.find("serve.requests"), std::string::npos);
  EXPECT_EQ(rig.cache.size(), 0u);
  // A second metrics call reflects the counters the first one bumped —
  // live state, not a cached snapshot.
  const std::string r2 =
      rig.service.handle_line("{\"type\": \"metrics\"}");
  EXPECT_NE(r1, r2);
}

TEST(Service, ShutdownIsAcknowledged) {
  Rig rig;
  const std::string resp =
      rig.service.handle_line("{\"id\": 5, \"type\": \"shutdown\"}");
  EXPECT_EQ(status_of(resp), 0);
  EXPECT_NE(resp.find("\"shutting_down\": true"), std::string::npos);
}

TEST(Service, ErrorResponseRendersBackpressureRejection) {
  Rig rig;
  EXPECT_EQ(rig.service.error_response("7", 75, "queue full"),
            "{\"id\": 7, \"status\": 75, \"error\": \"queue full\"}");
}

TEST(Service, OkEnvelopeMatchesJsonObjectRendering) {
  // Hits and misses render their envelope by concatenation; it must be
  // the bytes obs::JsonObject renders, for every id shape parse() echoes.
  const std::string result = "{\"stages\": 4, \"freq_mhz\": 212.5}";
  for (const std::string id : {"7", "-3", "\"abc\"", "null"}) {
    obs::JsonObject o;
    o.field_raw("id", id).field("status", 0).field_raw("result", result);
    EXPECT_EQ(ok_response(id, result), o.str()) << id;
  }
}

TEST(Service, RequestCountersAdvance) {
  Rig rig;
  const long base = rig.reg.counter("serve.requests").value();
  rig.service.handle_line("{\"type\": \"ping\"}");
  rig.service.handle_line("not json");
  EXPECT_EQ(rig.reg.counter("serve.requests").value(), base + 2);
  EXPECT_GE(rig.reg.counter("serve.requests.bad").value(), 1);
}

}  // namespace
}  // namespace flopsim::serve
