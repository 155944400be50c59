// Shared pieces of the workloads: the report every run prints,
// host-time helpers, readers for the spans and counters the library
// already emits, and probes that time one layer from outside, around
// calls into its public functions, at a workload's configurations.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "kernel/matmul.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"
#include "units/fp_unit.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) {
  return seconds_since(t0) * 1e3;
}
inline double us_since(Clock::time_point t0) {
  return seconds_since(t0) * 1e6;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one invocation measured: pinned settings, named metrics with
/// unit and sample count, correctness checks, and the failure tally.
/// print() writes one line per item and ends with a JSON line carrying
/// every metric; the wrapper script keeps the ones BENCHMARK.json lists.
class Report {
 public:
  void setting(const std::string& name, const std::string& value);
  void setting(const std::string& name, long value);
  void metric(const std::string& name, double value, const std::string& unit,
              long samples, const std::string& note = "");
  void check(const std::string& name, bool ok, const std::string& detail);
  FailTally& fails() { return fails_; }

  /// Every check passed and no operation failed.
  bool correct() const;
  void print(std::FILE* out) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    long samples = 0;
    std::string note;
  };
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<std::pair<std::string, std::string>> settings_;
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  FailTally fails_;
};

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Totals of the campaign spans the library records (analysis/seu.cpp,
/// rtl/evaluator.cpp, exec/parallel.cpp) over one or more traced windows.
struct SpanTotals {
  long campaigns = 0;  ///< unit_campaign + matmul_campaign spans
  std::vector<double> campaign_durations_us;
  double golden_us = 0.0;
  double draw_us = 0.0;
  double inject_us = 0.0;
  double reduce_us = 0.0;
  double bind_us = 0.0;
  std::vector<double> compile_us;  ///< one entry per compile span
  /// Worker `chunk` spans that ran inside a campaign span: same request
  /// trace when the campaign has one, else any thread.
  double chunk_in_campaign_us = 0.0;

  void add(const std::vector<flopsim::obs::TraceEvent>& events);
  double compile_total_us() const;
};

/// Growth of the campaign and checkpoint counters the library keeps in the
/// global registry (campaign.{unit,matmul}.*, checkpoint.*), summed over
/// one or more windows, each opened with begin() and closed with end().
class CounterDeltas {
 public:
  void begin();
  void end();
  long get(const std::string& name) const;

 private:
  std::map<std::string, long> start_;
  std::map<std::string, long> total_;
};

/// One pass of a campaign workload: its host wall time, the trials it
/// injected, and the host time of every campaign call.
struct PassStats {
  double wall_s = 0.0;
  long trials = 0;
  std::vector<double> call_us;
};

/// Run `pass` back to back until `seconds` of host time have gone by,
/// always completing the pass in flight (so every pass has the full mix).
/// One repetition of the workload's set-up runs before every pass, outside
/// the pass's timing, so set-up is sampled across the whole run and its
/// median sees the same machine as the passes do.
std::vector<PassStats> repeat_passes(double seconds,
                                     const std::function<PassStats()>& pass,
                                     const std::function<void()>& setup);

/// The traced run's schedule: untraced and traced passes alternate until
/// `seconds` have gone by, at least one of each. Only the traced passes
/// feed the span totals and the counter deltas.
struct AlternatedPasses {
  std::vector<PassStats> untraced;
  std::vector<PassStats> traced;
  SpanTotals spans;
  CounterDeltas counters;
};
AlternatedPasses alternate_passes(double seconds,
                                  const std::function<PassStats()>& pass);

/// Reports setup_s, work_per_s (median per-pass trials/s), op_p50_us and
/// op_tail_us (per campaign call) for a campaign workload.
void report_campaign_end_to_end(Report& r, const std::vector<double>& setup_s,
                                const std::vector<PassStats>& passes);

/// Reports the analysis.*, rtl.ns_per_trial, rtl.fast_path_frac,
/// fault.dropped_trials and exec.busy_frac metrics of a traced window from
/// the library's campaign spans and counters. `call_us` holds one wall
/// time per campaign; `threads` is each campaign's thread count.
void report_span_layers(Report& r, const SpanTotals& s, const CounterDeltas& d,
                        const std::vector<double>& call_us, int threads);

/// report_span_layers over a campaign workload's traced passes, plus its
/// reconciliation (unaccounted_frac) and tracing overhead.
void report_campaign_layers(Report& r, const AlternatedPasses& run,
                            int threads);

/// The operands run_matmul_campaign draws for `seed` (analysis/seu.cpp):
/// the first 2*n*n draws of mt19937_64(seed), interleaved A/B, mapped
/// onto [-2, 2] so products stay finite, rounded into `fmt`.
struct Operands {
  flopsim::kernel::Matrix a;
  flopsim::kernel::Matrix b;
};
Operands campaign_operands(std::uint64_t seed, int n,
                           flopsim::fp::FpFormat fmt);

/// Reports the checkpoint journal's fault.checkpoint_* metrics from the
/// counter growth over `passes` passes (all 0 when checkpointing is off).
/// The append p50 covers every append the process made.
void report_checkpoint(Report& r, const CounterDeltas& d, long passes);

/// A unit configuration a workload runs.
struct UnitSpec {
  flopsim::units::UnitKind kind = flopsim::units::UnitKind::kAdder;
  flopsim::fp::FpFormat fmt = flopsim::fp::FpFormat::binary32();
  flopsim::units::UnitConfig cfg;
};

/// units layer: host time of one FpUnit construction per spec, ms.
Distribution probe_unit_build_ms(const std::vector<UnitSpec>& specs,
                                 int reps);
/// analysis layer: host time of sweep_unit + select_min_max_opt per spec.
Distribution probe_sweep_ms(const std::vector<UnitSpec>& specs, int threads);
/// rtl layer: `compile` span durations of a small bitsliced campaign per
/// spec, ms (the program compile a fast path would pay at these units).
Distribution probe_compile_ms(const std::vector<UnitSpec>& specs);

struct KernelProbe {
  Distribution run_ms;
  long cycles = 0;
  double ns_per_cycle = 0.0;
  bool matches_reference = false;  ///< C bits == kernel::reference_gemm
};
/// kernel layer: clean LinearArrayMatmul::run on (a, b), `reps` times.
KernelProbe probe_kernel(const flopsim::kernel::PeConfig& pe,
                         const flopsim::kernel::Matrix& a,
                         const flopsim::kernel::Matrix& b, int reps);

struct FpProbe {
  double add_ns = 0.0;
  double mul_ns = 0.0;
  long ops = 0;  ///< operations timed per kind
};
/// fp layer: softfloat add and mul over the operand pairs (a[i], b[i]).
FpProbe probe_fp(const std::vector<flopsim::fp::u64>& a,
                 const std::vector<flopsim::fp::u64>& b,
                 flopsim::fp::FpFormat fmt);

/// Reports kernel.*, fp.*, units.build_ms and analysis.sweep_ms from the
/// probes, and checks the probe's clean kernel run against the reference.
void report_probes(Report& r, const Distribution& build_ms,
                   const Distribution& sweep_ms, const KernelProbe& kernel,
                   const FpProbe& fp);

/// The server's five request phases, in serve::Phase order: metric
/// serve.<phase>_us_p50/_p99, access-log field <phase>_us.
inline constexpr const char* kServePhases[] = {"parse", "queue", "eval",
                                               "cache", "write"};

/// Every serve.* metric, reported as 0 by a workload without a server.
void report_idle_serve(Report& r);

}  // namespace perfbench
