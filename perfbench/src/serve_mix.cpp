#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fl = flopsim;

namespace {

using fl::units::UnitKind;

// flopsim-serve's flagless settings, with the backend pinned instead of
// resolved from FLOPSIM_BACKEND.
constexpr int kWorkers = 2;
const std::size_t kQueueCapacity = fl::serve::ServerConfig{}.queue_capacity;
constexpr fl::rtl::EvalBackend kBackend = fl::rtl::EvalBackend::kInterpreted;
constexpr int kServiceThreads = 1;
constexpr int kCacheShards = 4;

constexpr int kClients = 2;
// A pool of 600 distinct requests, a third each plan / unit campaign /
// n=4 matmul campaign, under a Zipf(1.2) skew against an LRU of 150
// entries: about one request in eight misses, so the median request is
// a cache hit and the p99 a miss, and evictions keep happening.
constexpr int kPoolSize = 600;
constexpr std::size_t kLruCapacity = 150;
constexpr double kZipfExponent = 1.2;
constexpr int kPreseedStride = 4;  // every 4th rank starts on disk
constexpr int kSetupReps = 15;
const char* const kSocket = "serve.sock";  // relative: sun_path is short

struct PoolEntry {
  std::string line;
  bool unit_campaign = false;
  bool sweep_plan = false;  ///< a plan without stages runs sweep_unit
  UnitSpec unit;
};

UnitKind kind_of(int i) {
  static constexpr UnitKind kKinds[] = {UnitKind::kAdder, UnitKind::kMultiplier,
                                        UnitKind::kDivider, UnitKind::kSqrt,
                                        UnitKind::kMac};
  return kKinds[i];
}

/// Requests shaped like tests/serve/replay_requests.jsonl, in Zipf rank
/// order. The request kind, unit and precision cycle with the rank, so
/// every seed puts the same mix in the hot set and in the tail; the seed
/// draws depths, schemes, hardening and campaign seeds. The id is the
/// rank: repeats of a request must come back byte-identical.
std::vector<PoolEntry> make_pool(std::uint64_t seed) {
  static const char* const kOps[] = {"add", "mul", "div", "sqrt", "mac"};
  static const char* const kSchemes[] = {"none", "parity", "residue", "dup",
                                         "tmr"};
  std::mt19937_64 rng(seed);
  std::vector<PoolEntry> pool;
  for (int rank = 0; rank < kPoolSize; ++rank) {
    PoolEntry e;
    fl::obs::JsonObject o;
    o.field("id", static_cast<long>(rank));
    const long unique_seed = rank * 1000L + static_cast<long>(rng() % 1000);
    const int i = rank / 3;  // index among the requests of this kind
    const int op = i % 5;
    const int bits = (i / 5) % 2 == 0 ? 32 : 64;
    e.unit.kind = kind_of(op);
    e.unit.fmt = bits == 32 ? fl::fp::FpFormat::binary32()
                            : fl::fp::FpFormat::binary64();
    switch (rank % 3) {
      case 0: {
        e.unit_campaign = true;
        e.unit.cfg.stages = 2 + static_cast<int>(rng() % 7);
        o.field("type", "campaign")
            .field("op", kOps[op])
            .field("bits", bits)
            .field("stages", e.unit.cfg.stages)
            .field("scheme", kSchemes[rng() % 5])
            .field("faults", 64)
            .field("vectors", 16)
            .field("seed", unique_seed);
        break;
      }
      case 1: {
        o.field("type", "plan").field("op", kOps[op]).field("bits", bits);
        if ((i / 10) % 2 == 0) {
          o.field("stages", 1 + static_cast<int>(rng() % 12));
        } else {
          e.sweep_plan = true;
        }
        static const char* const kHarden[] = {"parity", "residue", "dup",
                                              "tmr", "ecc"};
        if (rng() % 2 == 0) o.field("harden", kHarden[rng() % 5]);
        break;
      }
      default:
        o.field("type", "campaign")
            .field("kernel", "matmul")
            .field("n", 4)
            .field("bits", 32)
            .field("faults", 48)
            .field("seed", unique_seed)
            .field("scheme", rng() % 2 == 0 ? "none" : "ecc");
        break;
    }
    e.line = o.str();
    pool.push_back(std::move(e));
  }
  return pool;
}

class Zipf {
 public:
  Zipf(int n, double s) {
    double total = 0.0;
    for (int r = 1; r <= n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  /// Rank for a uniform draw u in [0, 1).
  std::size_t draw(double u) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// An in-process server with its own registry, cache and telemetry,
/// served from a thread; the destructor stops and joins it.
class LiveServer {
 public:
  LiveServer(const std::string& cache_dir, const std::string& access_log)
      : reg_(std::make_unique<fl::obs::Registry>()) {
    fl::serve::CacheConfig cc;
    cc.capacity = kLruCapacity;
    cc.dir = cache_dir;
    cc.shards = kCacheShards;
    const Clock::time_point t0 = Clock::now();
    cache_ = std::make_unique<fl::serve::ResultCache>(cc, *reg_);
    disk_load_ms_ = ms_since(t0);
    fl::serve::ServiceConfig sc;
    sc.threads = kServiceThreads;
    sc.backend = kBackend;
    service_ = std::make_unique<fl::serve::Service>(sc, cache_.get(), *reg_);
    fl::serve::ServerConfig cfg;
    cfg.unix_path = kSocket;
    cfg.workers = kWorkers;
    cfg.queue_capacity = kQueueCapacity;
    cfg.telemetry.access_log_path = access_log;
    server_ = std::make_unique<fl::serve::Server>(cfg, *service_);
    std::string error = "telemetry sink";
    if (!server_->telemetry().ok() || !server_->start(&error)) {
      throw std::runtime_error("server start failed: " + error);
    }
    thread_ = std::thread([this] { server_->run(); });
  }
  ~LiveServer() {
    server_->request_stop();
    if (thread_.joinable()) thread_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  double disk_load_ms() const { return disk_load_ms_; }
  long counter(const std::string& name) const {
    return reg_->counter(name).value();
  }

 private:
  std::unique_ptr<fl::obs::Registry> reg_;
  std::unique_ptr<fl::serve::ResultCache> cache_;
  std::unique_ptr<fl::serve::Service> service_;
  std::unique_ptr<fl::serve::Server> server_;
  double disk_load_ms_ = 0.0;
  std::thread thread_;  // last: runs against every member above
};

int reply_status(const std::string& reply) {
  const std::optional<fl::serve::JsonValue> v = fl::serve::parse_json(reply);
  const fl::serve::JsonValue* s = v.has_value() ? v->get("status") : nullptr;
  return s != nullptr ? static_cast<int>(s->as_int(-1)) : -1;
}

/// What one client saw: the first reply to every pool entry, and the
/// replies that failed.
struct ClientLog {
  std::vector<std::string> first;
  std::vector<char> first_ok;
  long bad_status = 0;
  long byte_mismatch = 0;
  bool connect_failed = false;
};

void client_loop(int c, const std::vector<PoolEntry>& pool, const Zipf& zipf,
                 std::uint64_t seed, Clock::time_point epoch,
                 Clock::time_point deadline, ClosedLoop& ledger,
                 ClientLog& log) {
  fl::serve::Client client;
  std::string error;
  if (!client.connect(kSocket, 0, 5.0, &error)) {
    log.connect_failed = true;
    return;
  }
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + static_cast<unsigned>(c));
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::string reply;
  while (Clock::now() < deadline) {
    const std::size_t k = zipf.draw(uniform(rng));
    ledger.sent(c, seconds_since(epoch));
    if (!client.send_line(pool[k].line) || !client.recv_line(&reply)) {
      ledger.lost(c);
      ++log.bad_status;
      return;
    }
    const double t = seconds_since(epoch);
    bool ok = true;
    if (log.first[k].empty()) {
      log.first_ok[k] = reply_status(reply) == 0;
      log.first[k] = reply;
      ok = log.first_ok[k] != 0;
      if (!ok) ++log.bad_status;
    } else if (reply != log.first[k]) {
      ok = false;
      ++log.byte_mismatch;
    } else if (log.first_ok[k] == 0) {
      ok = false;
      ++log.bad_status;
    }
    ledger.received(c, t, ok);
  }
}

struct Window {
  ClosedLoop::Totals totals;
  std::vector<ClientLog> logs;
};

/// Closed loop: each client sends its next request only after the reply
/// to the previous one, until `seconds` have gone by.
Window run_window(const std::vector<PoolEntry>& pool, std::uint64_t seed,
                  double seconds) {
  const Zipf zipf(kPoolSize, kZipfExponent);
  ClosedLoop ledger(kClients);
  Window w;
  w.logs.resize(kClients);
  for (ClientLog& log : w.logs) {
    log.first.resize(pool.size());
    log.first_ok.resize(pool.size(), 0);
  }
  const Clock::time_point epoch = Clock::now();
  const Clock::time_point deadline =
      epoch + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(client_loop, c, std::cref(pool), std::cref(zipf),
                         seed, epoch, deadline, std::ref(ledger),
                         std::ref(w.logs[static_cast<std::size_t>(c)]));
  }
  for (std::thread& t : clients) t.join();
  w.totals = ledger.totals();
  return w;
}

/// Every reply any client got for a pool entry, checked against the
/// first reply seen for it anywhere in the run (batch-mode pre-seeding
/// included): fills `reference` and returns the mismatches.
long cross_check(const Window& w, std::vector<std::string>& reference) {
  long mismatches = 0;
  for (const ClientLog& log : w.logs) {
    for (std::size_t k = 0; k < log.first.size(); ++k) {
      if (log.first[k].empty()) continue;
      if (reference[k].empty()) {
        reference[k] = log.first[k];
      } else if (reference[k] != log.first[k]) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

void account(const Window& w, FailTally& f, long* connect_failures) {
  f.attempted += w.totals.attempted;
  for (const ClientLog& log : w.logs) {
    f.bad_status += log.bad_status;
    f.byte_mismatch += log.byte_mismatch;
    if (log.connect_failed) ++*connect_failures;
  }
}

/// Responses for every kPreseedStride-th entry, evaluated in batch mode
/// into a fresh disk tier (outside every timed region).
void preseed(const std::string& dir, const std::vector<PoolEntry>& pool,
             std::vector<std::string>& reference) {
  fl::obs::Registry reg;
  fl::serve::CacheConfig cc;
  cc.capacity = pool.size();
  cc.dir = dir;
  cc.shards = kCacheShards;
  fl::serve::ResultCache cache(cc, reg);
  fl::serve::ServiceConfig sc;
  sc.threads = kServiceThreads;
  sc.backend = kBackend;
  fl::serve::Service service(sc, &cache, reg);
  for (std::size_t k = 0; k < pool.size(); k += kPreseedStride) {
    reference[k] = service.handle_line(pool[k].line);
  }
}

void fresh_copy(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
}

/// Per-request phase timings from the access log.
struct AccessLog {
  std::vector<double> phase_us[fl::serve::kPhaseCount];
  std::vector<double> hit_us;
  std::vector<double> miss_us;
  double phase_sum_us = 0.0;
  long lines = 0;
};

AccessLog read_access_log(const std::string& path) {
  AccessLog a;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::optional<fl::serve::JsonValue> v = fl::serve::parse_json(line);
    if (!v.has_value()) continue;
    ++a.lines;
    for (int p = 0; p < fl::serve::kPhaseCount; ++p) {
      const fl::serve::JsonValue* f =
          v->get(std::string(kServePhases[p]) + "_us");
      const double us = f != nullptr ? f->as_double() : 0.0;
      a.phase_us[p].push_back(us);
      a.phase_sum_us += us;
    }
    const fl::serve::JsonValue* cache = v->get("cache");
    const fl::serve::JsonValue* total = v->get("total_us");
    const double total_us = total != nullptr ? total->as_double() : 0.0;
    const long long c = cache != nullptr ? cache->as_int(-1) : -1;
    if (c == 1) a.hit_us.push_back(total_us);
    if (c == 0) a.miss_us.push_back(total_us);
  }
  return a;
}

/// Start a server, connect, and get a ping answered: one set-up.
double timed_setup(const std::string& cache_dir, double* disk_load_ms) {
  const Clock::time_point t0 = Clock::now();
  LiveServer server(cache_dir, "");
  fl::serve::Client client;
  std::string error;
  std::string reply;
  if (!client.connect(kSocket, 0, 5.0, &error) ||
      !client.send_line(R"({"id": 0, "type": "ping"})") ||
      !client.recv_line(&reply) || reply_status(reply) != 0) {
    throw std::runtime_error("server did not answer a ping: " + error);
  }
  const double s = seconds_since(t0);
  *disk_load_ms = server.disk_load_ms();
  return s;
}

void report_layers(Report& r, const Window& untraced, const Window& traced,
                   const LiveServer& server, const AccessLog& access,
                   const SpanTotals& s, const CounterDeltas& deltas,
                   const std::vector<double>& disk_load_ms) {
  for (int p = 0; p < fl::serve::kPhaseCount; ++p) {
    const Distribution d = summarize(access.phase_us[p]);
    const std::string base = std::string("serve.") + kServePhases[p] + "_us";
    r.metric(base + "_p50", d.p50, "us", static_cast<long>(d.n),
             "access log, traced window");
    r.metric(base + "_p99", d.p99, "us", static_cast<long>(d.n),
             "access log, traced window");
  }
  const double hits = static_cast<double>(access.hit_us.size());
  const double lookups = hits + static_cast<double>(access.miss_us.size());
  r.metric("serve.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio",
           static_cast<long>(lookups), "cache hits / lookups");
  r.metric("serve.hit_us", median(access.hit_us), "us",
           static_cast<long>(access.hit_us.size()), "p50 total, hits");
  r.metric("serve.miss_us", median(access.miss_us), "us",
           static_cast<long>(access.miss_us.size()), "p50 total, misses");
  r.metric("serve.evictions",
           static_cast<double>(server.counter("serve.cache.eviction")),
           "count", static_cast<long>(lookups), "traced window");
  r.metric("serve.disk_load_ms", median(disk_load_ms), "ms",
           static_cast<long>(disk_load_ms.size()),
           "p50 ResultCache construction (disk-tier load)");
  r.metric("serve.disk_loaded",
           static_cast<double>(server.counter("serve.cache.disk_loaded")),
           "count", 1, "entries the traced server loaded from disk");
  r.metric("serve.rejected",
           static_cast<double>(server.counter("serve.requests.rejected")),
           "count", traced.totals.attempted, "status-75 rejections");

  // The misses' evaluations, seen through the library's own spans.
  report_span_layers(r, s, deltas, s.campaign_durations_us, kServiceThreads);
  report_checkpoint(r, deltas, 1);  // the server does not checkpoint

  double client_us = 0.0;
  for (const double us : traced.totals.latency_us) client_us += us;
  const Reconciliation rec{client_us, access.phase_sum_us};
  r.metric("unaccounted_frac", rec.unaccounted_frac(), "ratio", access.lines,
           "1 - sum of five serve phases / client-side latency");
  r.metric("obs.trace_overhead_frac",
           traced.totals.per_s > 0
               ? untraced.totals.per_s / traced.totals.per_s - 1.0
               : 0.0,
           "ratio", traced.totals.completed,
           "untraced vs traced req/s (access log + tracer)");
}

}  // namespace

void run_serve_mix(const Options& opt, Report& r) {
  r.setting("backend", fl::rtl::to_string(kBackend));
  r.setting("workers", kWorkers);
  r.setting("queue_capacity", static_cast<long>(kQueueCapacity));
  r.setting("service_threads", kServiceThreads);
  r.setting("lru_capacity", static_cast<long>(kLruCapacity));
  r.setting("cache_shards", kCacheShards);
  r.setting("clients", kClients);
  r.setting("pool_size", kPoolSize);
  r.setting("zipf_exponent", "1.2");
  r.setting("preseeded", static_cast<long>((kPoolSize + kPreseedStride - 1) /
                                           kPreseedStride));
  r.setting("socket", std::string("unix:") + kSocket);

  const std::vector<PoolEntry> pool = make_pool(opt.seed);
  std::vector<std::string> reference(pool.size());
  preseed("cache-seed", pool, reference);

  // Set-up: server start plus disk-tier load, until a ping is answered.
  // kSetupReps set-ups run before the measured window and as many after
  // it, so their median is not left to the process's first milliseconds.
  fresh_copy("cache-seed", "cache-setup");
  std::vector<double> setup_s;
  std::vector<double> disk_load_ms;
  const auto set_up = [&]() {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      double load = 0.0;
      setup_s.push_back(timed_setup("cache-setup", &load));
      disk_load_ms.push_back(load);
    }
  };
  set_up();

  long connect_failures = 0;
  long mismatches = 0;
  long outstanding = 0;
  if (!opt.trace) {
    fresh_copy("cache-seed", "cache-run");
    Window w;
    {
      LiveServer server("cache-run", "");
      w = run_window(pool, opt.seed, opt.seconds);
      const long hits = server.counter("serve.cache.hit");
      const long lookups = hits + server.counter("serve.cache.miss");
      r.metric("serve.hit_ratio_untraced",
               static_cast<double>(hits) /
                   static_cast<double>(std::max(1L, lookups)),
               "ratio", w.totals.attempted, "server cache counters");
    }
    set_up();
    account(w, r.fails(), &connect_failures);
    mismatches += cross_check(w, reference);
    outstanding += w.totals.outstanding;
    const Distribution d = summarize(w.totals.latency_us);
    r.metric("setup_s", median(setup_s), "s",
             static_cast<long>(setup_s.size()), "median set-up");
    r.metric("work_per_s", w.totals.per_s, "1/s", w.totals.completed,
             "req_per_s: completed requests per second, closed loop");
    r.metric("op_p50_us", d.p50, "us", static_cast<long>(d.n),
             "req_p50_us: client send to full response line");
    char note[96];
    std::snprintf(note, sizeof note, "req_p%g_us (tail rule%s)", d.tail_level,
                  d.tail_qualified ? "" : ", too few samples");
    r.metric("op_tail_us", d.tail, "us", static_cast<long>(d.n), note);
  } else {
    fl::obs::Tracer& tracer = fl::obs::Tracer::global();
    const double half = opt.seconds / 2.0;
    fresh_copy("cache-seed", "cache-a");
    Window untraced;
    {
      LiveServer server("cache-a", "");
      untraced = run_window(pool, opt.seed, half);
    }
    fresh_copy("cache-seed", "cache-b");
    Window traced;
    SpanTotals spans;
    CounterDeltas deltas;
    {
      LiveServer server("cache-b", "access.jsonl");
      tracer.clear();
      deltas.begin();
      tracer.enable(true);
      traced = run_window(pool, opt.seed, half);
      tracer.enable(false);
      deltas.end();
      spans.add(tracer.events());
      tracer.clear();
      const AccessLog access = read_access_log("access.jsonl");
      const long served = server.counter("serve.requests");
      r.check("access_log_complete",
              served == access.lines && access.lines == traced.totals.attempted,
              std::to_string(access.lines) + " access-log lines, " +
                  std::to_string(served) + " served, " +
                  std::to_string(traced.totals.attempted) + " sent");
      report_layers(r, untraced, traced, server, access, spans, deltas,
                    disk_load_ms);
    }
    for (const Window* w : {&untraced, &traced}) {
      account(*w, r.fails(), &connect_failures);
      mismatches += cross_check(*w, reference);
      outstanding += w->totals.outstanding;
    }

    // Layer probes at the pool's configurations.
    std::vector<UnitSpec> units;
    std::vector<UnitSpec> sweeps;
    for (const PoolEntry& e : pool) {
      if (e.unit_campaign && units.size() < 12) units.push_back(e.unit);
      if (e.sweep_plan && sweeps.size() < 4) sweeps.push_back(e.unit);
    }
    const Distribution compile = probe_compile_ms(
        std::vector<UnitSpec>(units.begin(), units.begin() + 4));
    r.metric("rtl.compile_ms", compile.p50, "ms", static_cast<long>(compile.n),
             "probe: p50 compile of the pool's unit configs");
    const fl::kernel::PeConfig pe;  // the matmul requests' defaults
    const Operands ops = campaign_operands(opt.seed, 4, pe.fmt);
    report_probes(r, probe_unit_build_ms(units, 3),
                  probe_sweep_ms(sweeps, kServiceThreads),
                  probe_kernel(pe, ops.a, ops.b, 20),
                  probe_fp(ops.a.bits, ops.b.bits, pe.fmt));
  }
  const FailTally& f = r.fails();
  r.check("statuses_zero", f.bad_status == 0,
          std::to_string(f.bad_status) + " non-zero or missing statuses");
  r.check("repeats_byte_identical", f.byte_mismatch == 0 && mismatches == 0,
          std::to_string(f.byte_mismatch + mismatches) + " replies differ");
  r.check("clients_connected", connect_failures == 0,
          std::to_string(connect_failures) + " connect failures");
  r.check("closed_loop_drained", outstanding == 0,
          std::to_string(outstanding) + " requests left in flight");
  r.fails().byte_mismatch += mismatches;
}

}  // namespace perfbench
