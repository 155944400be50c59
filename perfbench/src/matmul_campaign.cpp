#include <random>

#include "analysis/seu.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fl = flopsim;

namespace {

constexpr int kN = 16;
constexpr int kThreads = 2;
constexpr fl::rtl::EvalBackend kBackend = fl::rtl::EvalBackend::kBitsliced;
// ~150 campaigns in a 30 s run: the tail rule's p90, far from the sample
// counts (100, 200) where it would switch level.
constexpr int kFaults = 96;
constexpr int kPerLeg = 3;
constexpr int kSetupReps = 4;
constexpr double kConfigFraction = 0.25;

struct Leg {
  const char* name;
  fl::fault::Scheme scheme;
  double config_fraction;
};
constexpr Leg kLegs[] = {{"none", fl::fault::Scheme::kNone, 0.0},
                         {"ecc", fl::fault::Scheme::kEcc, 0.0},
                         {"config", fl::fault::Scheme::kNone, kConfigFraction}};

fl::kernel::PeConfig pe_config() {
  fl::kernel::PeConfig pe;
  pe.fmt = fl::fp::FpFormat::binary32();
  pe.adder_stages = 5;
  pe.mult_stages = 4;
  return pe;
}

std::vector<fl::analysis::MatmulSeuConfig> draw_campaigns(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<fl::analysis::MatmulSeuConfig> list;
  for (int k = 0; k < kPerLeg; ++k) {
    for (const Leg& leg : kLegs) {
      fl::analysis::MatmulSeuConfig c;
      c.n = kN;
      c.faults = kFaults;
      c.seed = rng();
      c.scheme = leg.scheme;
      c.config_fraction = leg.config_fraction;
      c.threads = kThreads;
      c.backend = kBackend;
      list.push_back(c);
    }
  }
  return list;
}

/// Trials a campaign is asked for: its faults plus the configuration
/// upsets run_matmul_campaign adds (rounded the same way).
long requested_trials(const fl::analysis::MatmulSeuConfig& c) {
  return c.faults + static_cast<long>(c.config_fraction * c.faults + 0.5);
}

bool same_tallies(const fl::analysis::MatmulSeuResult& a,
                  const fl::analysis::MatmulSeuResult& b) {
  return a.injected == b.injected && a.masked == b.masked &&
         a.detected == b.detected && a.corrected == b.corrected &&
         a.silent == b.silent && a.acc_injected == b.acc_injected &&
         a.acc_silent == b.acc_silent &&
         a.latch_injected == b.latch_injected &&
         a.latch_silent == b.latch_silent &&
         a.config_injected == b.config_injected &&
         a.config_silent == b.config_silent &&
         a.draws_exhausted == b.draws_exhausted;
}

}  // namespace

void run_matmul_campaign(const Options& opt, Report& r) {
  const fl::kernel::PeConfig pe = pe_config();
  const std::vector<fl::analysis::MatmulSeuConfig> list =
      draw_campaigns(opt.seed);
  r.setting("backend", std::string(fl::rtl::to_string(kBackend)) +
                           " (requested; kernel trials run interpreted)");
  r.setting("threads", kThreads);
  r.setting("n", kN);
  r.setting("format", pe.fmt.name());
  r.setting("adder_stages", pe.adder_stages);
  r.setting("mult_stages", pe.mult_stages);
  r.setting("faults_per_campaign", kFaults);
  r.setting("campaigns_per_pass", static_cast<long>(list.size()));
  r.setting("legs", "none, ecc, config (config_fraction 0.25)");
  r.setting("checkpointing", "off");

  // Set-up: operand matrices and one array per campaign. It runs once
  // here and, in the untraced run, kSetupReps times before every pass,
  // where setup_s is taken.
  std::vector<double> setup_s;
  std::vector<Operands> operands;
  std::vector<fl::kernel::LinearArrayMatmul> arrays;
  const auto set_up = [&]() {
    const Clock::time_point t0 = Clock::now();
    operands.clear();
    arrays.clear();
    for (const fl::analysis::MatmulSeuConfig& c : list) {
      operands.push_back(campaign_operands(c.seed, kN, pe.fmt));
      fl::kernel::PeConfig cfg = pe;
      cfg.ecc_accumulators = c.scheme == fl::fault::Scheme::kEcc;
      arrays.emplace_back(kN, cfg);
    }
    setup_s.push_back(seconds_since(t0));
  };
  set_up();

  std::vector<fl::analysis::MatmulSeuResult> first;
  long repeat_mismatch_trials = 0;
  long attempted = 0;
  long dropped = 0;
  const auto pass = [&]() {
    PassStats p;
    const Clock::time_point t0 = Clock::now();
    std::vector<fl::analysis::MatmulSeuResult> results;
    results.reserve(list.size());
    for (const fl::analysis::MatmulSeuConfig& c : list) {
      const Clock::time_point c0 = Clock::now();
      results.push_back(fl::analysis::run_matmul_campaign(pe, c));
      p.call_us.push_back(us_since(c0));
      p.trials += results.back().injected;
    }
    p.wall_s = seconds_since(t0);
    for (std::size_t i = 0; i < list.size(); ++i) {
      attempted += requested_trials(list[i]);
      dropped += results[i].draws_exhausted;
      if (!first.empty() && !same_tallies(results[i], first[i])) {
        repeat_mismatch_trials += requested_trials(list[i]);
      }
    }
    if (first.empty()) first = std::move(results);
    return p;
  };

  if (!opt.trace) {
    setup_s.clear();  // the first set-up pays the process's warm-up
    const std::vector<PassStats> passes =
        repeat_passes(opt.seconds, pass, [&]() {
          for (int rep = 0; rep < kSetupReps; ++rep) set_up();
        });
    report_campaign_end_to_end(r, setup_s, passes);
  } else {
    const AlternatedPasses run = alternate_passes(opt.seconds, pass);
    report_campaign_layers(r, run, kThreads);
    report_checkpoint(r, run.counters, static_cast<long>(run.traced.size()));
    // The kernel campaign compiles nothing today; time what compiling the
    // PE's two units would cost a kernel fast path.
    UnitSpec adder;
    adder.kind = fl::units::UnitKind::kAdder;
    adder.cfg = pe.adder_config();
    UnitSpec mult;
    mult.kind = fl::units::UnitKind::kMultiplier;
    mult.cfg = pe.mult_config();
    const std::vector<UnitSpec> pe_units = {adder, mult};
    const Distribution compile = probe_compile_ms(pe_units);
    r.metric("rtl.compile_ms", compile.p50, "ms", static_cast<long>(compile.n),
             "probe: p50 compile of the PE's adder and multiplier");
    report_probes(r, probe_unit_build_ms(pe_units, 10),
                  probe_sweep_ms(pe_units, kThreads),
                  probe_kernel(pe, operands[0].a, operands[0].b, 5),
                  probe_fp(operands[0].a.bits, operands[0].b.bits, pe.fmt));
    report_idle_serve(r);
  }

  // Correctness, outside the timed region: each campaign's clean array
  // run equals reference_gemm bit for bit, and its tallies equal those of
  // an explicitly interpreted run of the same campaign.
  long clean_mismatch = 0;
  long interp_mismatch = 0;
  long mismatch_trials = repeat_mismatch_trials;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const fl::kernel::MatmulRun clean =
        arrays[i].run(operands[i].a, operands[i].b);
    const bool clean_ok =
        clean.c.bits == fl::kernel::reference_gemm(operands[i].a,
                                                   operands[i].b, pe.fmt,
                                                   pe.rounding)
                            .bits;
    fl::analysis::MatmulSeuConfig ref = list[i];
    ref.backend = fl::rtl::EvalBackend::kInterpreted;
    const bool tallies_ok =
        same_tallies(fl::analysis::run_matmul_campaign(pe, ref), first[i]);
    if (!clean_ok) ++clean_mismatch;
    if (!tallies_ok) ++interp_mismatch;
    if (!clean_ok || !tallies_ok) mismatch_trials += requested_trials(list[i]);
  }
  const std::string of = " of " + std::to_string(list.size()) + " campaigns";
  r.check("clean_run_equals_reference_gemm", clean_mismatch == 0,
          std::to_string(clean_mismatch) + of + " differ");
  r.check("tallies_equal_interpreted", interp_mismatch == 0,
          std::to_string(interp_mismatch) + of + " differ");
  r.check("tallies_repeat_across_passes", repeat_mismatch_trials == 0,
          std::to_string(repeat_mismatch_trials) + " trials differ");
  FailTally& f = r.fails();
  f.attempted += attempted;
  f.dropped += dropped;
  f.tally_mismatch += mismatch_trials;
}

}  // namespace perfbench
