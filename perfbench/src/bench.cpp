#include "bench.hpp"

#include <sys/resource.h>

#include <cmath>
#include <random>
#include <sstream>

#include "analysis/pareto.hpp"
#include "analysis/seu.hpp"
#include "analysis/sweep.hpp"
#include "fp/ops.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "serve/json.hpp"

namespace perfbench {

namespace fl = flopsim;

namespace {

/// All digits, as measured: 17 significant digits round-trip any double.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

// --- report ---------------------------------------------------------------

void Report::setting(const std::string& name, const std::string& value) {
  settings_.emplace_back(name, value);
}

void Report::setting(const std::string& name, long value) {
  settings_.emplace_back(name, std::to_string(value));
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, long samples,
                    const std::string& note) {
  metrics_.push_back(Metric{name, value, unit, samples, note});
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back(Check{name, ok, detail});
}

bool Report::correct() const {
  for (const Check& c : checks_) {
    if (!c.ok) return false;
  }
  return fails_.attempted > 0 && fails_.failed() == 0;
}

void Report::print(std::FILE* out) const {
  for (const auto& [name, value] : settings_) {
    std::fprintf(out, "setting  %-26s %s\n", name.c_str(), value.c_str());
  }
  for (const Metric& m : metrics_) {
    std::fprintf(out, "metric   %-26s %-12.6g %-6s n=%-8ld %s\n",
                 m.name.c_str(), m.value, m.unit.c_str(), m.samples,
                 m.note.c_str());
  }
  for (const Check& c : checks_) {
    std::fprintf(out, "check    %-26s %-4s %s\n", c.name.c_str(),
                 c.ok ? "ok" : "FAIL", c.detail.c_str());
  }
  std::fprintf(out,
               "failures %ld of %ld attempted (status %ld, bytes %ld, "
               "tallies %ld, dropped %ld)\n",
               fails_.failed(), fails_.attempted, fails_.bad_status,
               fails_.byte_mismatch, fails_.tally_mismatch, fails_.dropped);
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(fails_.attempted);
  json += ", \"failed\": " + std::to_string(fails_.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) json += ", ";
    json += "\"" + fl::obs::json_escape(m.name) + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" +
            fl::obs::json_escape(m.unit) + "\"}";
  }
  json += "}}";
  std::fprintf(out, "%s\n", json.c_str());
  std::fflush(out);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- spans and counters ----------------------------------------------------

void SpanTotals::add(const std::vector<fl::obs::TraceEvent>& events) {
  std::vector<const fl::obs::TraceEvent*> spans;
  for (const fl::obs::TraceEvent& e : events) {
    if (e.name == "unit_campaign" || e.name == "matmul_campaign") {
      ++campaigns;
      campaign_durations_us.push_back(e.dur_us);
      spans.push_back(&e);
    } else if (e.name == "golden") {
      golden_us += e.dur_us;
    } else if (e.name == "draw") {
      draw_us += e.dur_us;
    } else if (e.name == "inject") {
      inject_us += e.dur_us;
    } else if (e.name == "reduce") {
      reduce_us += e.dur_us;
    } else if (e.name == "bind") {
      bind_us += e.dur_us;
    } else if (e.name == "compile") {
      compile_us.push_back(e.dur_us);
    }
  }
  constexpr double kSlackUs = 0.5;  // timestamps are rounded doubles
  for (const fl::obs::TraceEvent& e : events) {
    if (e.name != "chunk") continue;
    for (const fl::obs::TraceEvent* c : spans) {
      const bool same_scope = c->trace_id == 0 || c->trace_id == e.trace_id;
      if (same_scope && e.ts_us + kSlackUs >= c->ts_us &&
          e.ts_us + e.dur_us <= c->ts_us + c->dur_us + kSlackUs) {
        chunk_in_campaign_us += e.dur_us;
        break;
      }
    }
  }
}

double SpanTotals::compile_total_us() const {
  double total = 0.0;
  for (const double c : compile_us) total += c;
  return total;
}

namespace {

// Every counter the workloads read from the global registry.
const char* const kLibraryCounters[] = {
    "campaign.unit.trials",          "campaign.matmul.trials",
    "campaign.unit.backend_fallback", "campaign.matmul.backend_fallback",
    "campaign.unit.dropped_trials",  "campaign.matmul.dropped_trials",
    "checkpoint.appends",            "checkpoint.bytes",
    "checkpoint.fsyncs"};

/// p50 of the library's checkpoint.write_us histogram; 0 before the first
/// append. Read from the registry's JSON-lines dump, which carries the
/// quantile, because the histogram's bucket bounds (needed to look it up
/// by name) are private to fault/checkpoint.cpp.
double checkpoint_write_p50_us() {
  std::ostringstream dump;
  fl::obs::Registry::global().write_jsonl(dump);
  std::istringstream lines(dump.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"checkpoint.write_us\"") == std::string::npos) continue;
    const std::optional<fl::serve::JsonValue> v = fl::serve::parse_json(line);
    const fl::serve::JsonValue* p50 = v.has_value() ? v->get("p50") : nullptr;
    return p50 != nullptr ? p50->as_double() : 0.0;
  }
  return 0.0;
}

}  // namespace

void CounterDeltas::begin() {
  fl::obs::Registry& reg = fl::obs::Registry::global();
  for (const char* name : kLibraryCounters) {
    start_[name] = reg.counter(name).value();
  }
}

void CounterDeltas::end() {
  fl::obs::Registry& reg = fl::obs::Registry::global();
  for (const char* name : kLibraryCounters) {
    total_[name] += reg.counter(name).value() - start_[name];
  }
}

long CounterDeltas::get(const std::string& name) const {
  const auto it = total_.find(name);
  return it == total_.end() ? 0 : it->second;
}

// --- pass schedules --------------------------------------------------------

std::vector<PassStats> repeat_passes(double seconds,
                                     const std::function<PassStats()>& pass,
                                     const std::function<void()>& setup) {
  std::vector<PassStats> out;
  const Clock::time_point t0 = Clock::now();
  do {
    setup();
    out.push_back(pass());
  } while (seconds_since(t0) < seconds);
  return out;
}

AlternatedPasses alternate_passes(double seconds,
                                  const std::function<PassStats()>& pass) {
  AlternatedPasses out;
  fl::obs::Tracer& tracer = fl::obs::Tracer::global();
  const Clock::time_point t0 = Clock::now();
  do {
    tracer.enable(false);
    out.untraced.push_back(pass());

    tracer.clear();
    out.counters.begin();
    tracer.enable(true);
    out.traced.push_back(pass());
    tracer.enable(false);
    out.counters.end();
    out.spans.add(tracer.events());
    tracer.clear();
  } while (seconds_since(t0) < seconds);
  return out;
}

// --- campaign metrics ------------------------------------------------------

void report_campaign_end_to_end(Report& r, const std::vector<double>& setup_s,
                                const std::vector<PassStats>& passes) {
  r.metric("setup_s", median(setup_s), "s", static_cast<long>(setup_s.size()),
           "median set-up");
  std::vector<double> rates;
  std::vector<double> calls;
  for (const PassStats& p : passes) {
    rates.push_back(ratio(static_cast<double>(p.trials), p.wall_s));
    calls.insert(calls.end(), p.call_us.begin(), p.call_us.end());
  }
  r.metric("work_per_s", median(rates), "1/s", static_cast<long>(rates.size()),
           "trials_per_s: injected trials per second, median over passes");
  const Distribution d = summarize(calls);
  r.metric("op_p50_us", d.p50, "us", static_cast<long>(d.n),
           "median campaign call");
  char note[96];
  std::snprintf(note, sizeof note, "p%g campaign call (tail rule%s)",
                d.tail_level, d.tail_qualified ? "" : ", too few samples");
  r.metric("op_tail_us", d.tail, "us", static_cast<long>(d.n), note);
}

void report_span_layers(Report& r, const SpanTotals& s, const CounterDeltas& d,
                        const std::vector<double>& call_us, int threads) {
  const long trials =
      d.get("campaign.unit.trials") + d.get("campaign.matmul.trials");
  const long fallbacks = d.get("campaign.unit.backend_fallback") +
                         d.get("campaign.matmul.backend_fallback");
  const double campaigns = static_cast<double>(s.campaigns);
  double wall_us = 0.0;
  for (const double c : call_us) wall_us += c;

  r.metric("analysis.campaign_ms", median(call_us) / 1e3, "ms",
           static_cast<long>(call_us.size()), "p50 per campaign");
  r.metric("analysis.golden_ms", ratio(s.golden_us / 1e3, campaigns), "ms",
           s.campaigns, "golden span per campaign");
  r.metric("analysis.draw_ms", ratio(s.draw_us / 1e3, campaigns), "ms",
           s.campaigns, "draw span per campaign");
  r.metric("analysis.inject_ms", ratio(s.inject_us / 1e3, campaigns), "ms",
           s.campaigns, "inject span per campaign");
  r.metric("analysis.reduce_ms", ratio(s.reduce_us / 1e3, campaigns), "ms",
           s.campaigns, "reduce span per campaign");
  r.metric("rtl.ns_per_trial",
           ratio(s.inject_us * 1e3, static_cast<double>(trials)), "ns", trials,
           "inject span per injected trial");
  r.metric("rtl.fast_path_frac",
           1.0 - ratio(static_cast<double>(fallbacks), campaigns), "ratio",
           s.campaigns, "campaigns run on the requested backend");
  r.metric("fault.dropped_trials",
           static_cast<double>(d.get("campaign.unit.dropped_trials") +
                               d.get("campaign.matmul.dropped_trials")),
           "count", s.campaigns, "over the traced window");
  r.metric("exec.busy_frac", ratio(s.chunk_in_campaign_us, threads * wall_us),
           "ratio", s.campaigns,
           "worker chunk time / (threads x campaign wall)");
}

void report_campaign_layers(Report& r, const AlternatedPasses& run,
                            int threads) {
  const SpanTotals& s = run.spans;
  std::vector<double> calls;
  std::vector<double> traced_wall;
  std::vector<double> untraced_wall;
  double call_us = 0.0;
  for (const PassStats& p : run.traced) {
    calls.insert(calls.end(), p.call_us.begin(), p.call_us.end());
    for (const double c : p.call_us) call_us += c;
    traced_wall.push_back(p.wall_s);
  }
  for (const PassStats& p : run.untraced) untraced_wall.push_back(p.wall_s);
  report_span_layers(r, s, run.counters, calls, threads);
  const Reconciliation rec{call_us, s.golden_us + s.draw_us + s.inject_us +
                                        s.reduce_us + s.bind_us +
                                        s.compile_total_us()};
  r.metric("unaccounted_frac", rec.unaccounted_frac(), "ratio", s.campaigns,
           "1 - (golden+draw+inject+reduce+bind+compile) / campaign wall");
  r.metric("obs.trace_overhead_frac",
           ratio(median(traced_wall), median(untraced_wall)) - 1.0, "ratio",
           static_cast<long>(run.traced.size()),
           "traced vs untraced pass wall, medians");
}

void report_checkpoint(Report& r, const CounterDeltas& d, long passes) {
  const auto per_pass = [&](const char* counter) {
    return ratio(static_cast<double>(d.get(counter)),
                 static_cast<double>(passes));
  };
  r.metric("fault.checkpoint_appends", per_pass("checkpoint.appends"),
           "count", passes, "per pass");
  r.metric("fault.checkpoint_bytes", per_pass("checkpoint.bytes"), "bytes",
           passes, "per pass");
  r.metric("fault.checkpoint_fsyncs", per_pass("checkpoint.fsyncs"), "count",
           passes, "per pass");
  r.metric("fault.checkpoint_write_us", checkpoint_write_p50_us(), "us",
           d.get("checkpoint.appends"),
           "p50 append (checkpoint.write_us histogram)");
}

// --- probes ---------------------------------------------------------------

Operands campaign_operands(std::uint64_t seed, int n, fl::fp::FpFormat fmt) {
  std::mt19937_64 rng(seed);
  std::vector<double> av;
  std::vector<double> bv;
  for (int i = 0; i < n * n; ++i) {
    av.push_back((static_cast<double>(rng() % 2001) - 1000.0) / 499.0);
    bv.push_back((static_cast<double>(rng() % 2001) - 1000.0) / 499.0);
  }
  return {fl::kernel::matrix_from_doubles(av, n, fmt),
          fl::kernel::matrix_from_doubles(bv, n, fmt)};
}

Distribution probe_unit_build_ms(const std::vector<UnitSpec>& specs,
                                 int reps) {
  std::vector<double> ms;
  for (int rep = 0; rep < reps; ++rep) {
    for (const UnitSpec& s : specs) {
      const Clock::time_point t0 = Clock::now();
      const fl::units::FpUnit unit(s.kind, s.fmt, s.cfg);
      ms.push_back(ms_since(t0));
    }
  }
  return summarize(ms);
}

Distribution probe_sweep_ms(const std::vector<UnitSpec>& specs, int threads) {
  std::vector<double> ms;
  for (const UnitSpec& s : specs) {
    const Clock::time_point t0 = Clock::now();
    const fl::analysis::SweepResult sweep = fl::analysis::sweep_unit(
        s.kind, s.fmt, s.cfg.objective, s.cfg.tech, threads);
    (void)fl::analysis::select_min_max_opt(sweep);
    ms.push_back(ms_since(t0));
  }
  return summarize(ms);
}

Distribution probe_compile_ms(const std::vector<UnitSpec>& specs) {
  fl::obs::Tracer& tracer = fl::obs::Tracer::global();
  tracer.clear();
  tracer.enable(true);
  for (const UnitSpec& s : specs) {
    fl::analysis::SeuCampaignConfig camp;
    camp.faults = 16;
    camp.threads = 1;
    camp.backend = fl::rtl::EvalBackend::kBitsliced;
    (void)fl::analysis::run_unit_campaign(s.kind, s.fmt, s.cfg, camp);
  }
  tracer.enable(false);
  SpanTotals spans;
  spans.add(tracer.events());
  tracer.clear();
  std::vector<double> ms;
  for (const double us : spans.compile_us) ms.push_back(us / 1e3);
  return summarize(ms);
}

KernelProbe probe_kernel(const fl::kernel::PeConfig& pe,
                         const fl::kernel::Matrix& a,
                         const fl::kernel::Matrix& b, int reps) {
  KernelProbe k;
  fl::kernel::LinearArrayMatmul array(a.n, pe);
  std::vector<double> ms;
  fl::kernel::MatmulRun run;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    run = array.run(a, b);
    ms.push_back(ms_since(t0));
  }
  k.run_ms = summarize(ms);
  k.cycles = run.cycles;
  k.ns_per_cycle = ratio(k.run_ms.p50 * 1e6, static_cast<double>(run.cycles));
  k.matches_reference =
      run.c.bits == fl::kernel::reference_gemm(a, b, pe.fmt, pe.rounding).bits;
  return k;
}

namespace {

volatile fl::fp::u64 g_sink = 0;  // keeps the timed softfloat calls live

template <typename Op>
double ns_per_op(const std::vector<fl::fp::FpValue>& a,
                 const std::vector<fl::fp::FpValue>& b, Op op, long* ops) {
  constexpr double kMinSeconds = 0.02;
  fl::fp::FpEnv env = fl::fp::FpEnv::paper();
  fl::fp::u64 acc = 0;
  long n = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    for (std::size_t i = 0; i < a.size(); ++i) acc ^= op(a[i], b[i], env).bits;
    n += static_cast<long>(a.size());
  } while (seconds_since(t0) < kMinSeconds);
  const double elapsed_ns = seconds_since(t0) * 1e9;
  g_sink = acc;
  *ops = n;
  return ratio(elapsed_ns, static_cast<double>(n));
}

}  // namespace

FpProbe probe_fp(const std::vector<fl::fp::u64>& a,
                 const std::vector<fl::fp::u64>& b, fl::fp::FpFormat fmt) {
  std::vector<fl::fp::FpValue> va;
  std::vector<fl::fp::FpValue> vb;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    va.emplace_back(a[i], fmt);
    vb.emplace_back(b[i], fmt);
  }
  FpProbe p;
  if (va.empty()) return p;
  p.add_ns = ns_per_op(
      va, vb,
      [](const fl::fp::FpValue& x, const fl::fp::FpValue& y,
         fl::fp::FpEnv& env) { return fl::fp::add(x, y, env); },
      &p.ops);
  p.mul_ns = ns_per_op(
      va, vb,
      [](const fl::fp::FpValue& x, const fl::fp::FpValue& y,
         fl::fp::FpEnv& env) { return fl::fp::mul(x, y, env); },
      &p.ops);
  return p;
}

void report_probes(Report& r, const Distribution& build_ms,
                   const Distribution& sweep_ms, const KernelProbe& kernel,
                   const FpProbe& fp) {
  r.metric("units.build_ms", build_ms.p50, "ms", static_cast<long>(build_ms.n),
           "p50 FpUnit construction at the workload's configs");
  r.metric("analysis.sweep_ms", sweep_ms.p50, "ms",
           static_cast<long>(sweep_ms.n), "p50 sweep_unit + selection");
  r.metric("kernel.run_ms", kernel.run_ms.p50, "ms",
           static_cast<long>(kernel.run_ms.n),
           "p50 clean LinearArrayMatmul::run");
  r.metric("kernel.ns_per_cycle", kernel.ns_per_cycle, "ns", kernel.cycles,
           "clean run per simulated array cycle");
  r.metric("fp.add_ns", fp.add_ns, "ns", fp.ops, "softfloat add, binary32");
  r.metric("fp.mul_ns", fp.mul_ns, "ns", fp.ops, "softfloat mul, binary32");
  r.check("kernel_probe_matches_reference", kernel.matches_reference,
          "clean array run == kernel::reference_gemm bit for bit");
}

void report_idle_serve(Report& r) {
  const char* idle = "idle: no server on this workload";
  for (const char* phase : kServePhases) {
    const std::string base = std::string("serve.") + phase + "_us";
    r.metric(base + "_p50", 0.0, "us", 0, idle);
    r.metric(base + "_p99", 0.0, "us", 0, idle);
  }
  r.metric("serve.hit_ratio", 0.0, "ratio", 0, idle);
  r.metric("serve.hit_us", 0.0, "us", 0, idle);
  r.metric("serve.miss_us", 0.0, "us", 0, idle);
  r.metric("serve.evictions", 0.0, "count", 0, idle);
  r.metric("serve.disk_load_ms", 0.0, "ms", 0, idle);
  r.metric("serve.disk_loaded", 0.0, "count", 0, idle);
  r.metric("serve.rejected", 0.0, "count", 0, idle);
}

}  // namespace perfbench
