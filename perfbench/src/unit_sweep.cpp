#include <algorithm>
#include <filesystem>
#include <random>

#include "analysis/pareto.hpp"
#include "analysis/seu.hpp"
#include "analysis/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fl = flopsim;

namespace {

using fl::units::UnitKind;

constexpr int kThreads = 2;
constexpr fl::rtl::EvalBackend kBackend = fl::rtl::EvalBackend::kBitsliced;
constexpr int kSetupReps = 3;
// Each unit runs at three depths x five schemes = 15 campaigns; at every
// depth the five schemes draw this fault ladder in seeded order. The
// small counts weigh the per-campaign build + compile, the large ones the
// per-trial loop. Fixing the ladder per (unit, depth) keeps every seed's
// pass the same work (the bitsliced trial cost does not depend on the
// scheme), so seeds move which scheme gets which count, not the total.
constexpr int kFaultLadder[] = {64, 256, 1024, 2048, 4096};
constexpr fl::fault::Scheme kSchemes[] = {
    fl::fault::Scheme::kNone, fl::fault::Scheme::kParity,
    fl::fault::Scheme::kResidue, fl::fault::Scheme::kDuplicate,
    fl::fault::Scheme::kTmr};

std::vector<UnitSpec> unit_cases() {
  std::vector<UnitSpec> out;
  for (const UnitKind k : {UnitKind::kAdder, UnitKind::kMultiplier,
                           UnitKind::kDivider, UnitKind::kSqrt,
                           UnitKind::kMac}) {
    for (const fl::fp::FpFormat f :
         {fl::fp::FpFormat::binary32(), fl::fp::FpFormat::binary64()}) {
      UnitSpec s;
      s.kind = k;
      s.fmt = f;
      out.push_back(s);
    }
  }
  return out;
}

struct Depths {
  int min = 1;
  int opt = 1;
  int max = 1;
  bool operator==(const Depths&) const = default;
};

/// The paper's Tables 1-2 selection for every unit: one sweep_unit +
/// select_min_max_opt each, timed per call.
std::vector<Depths> select_depths(const std::vector<UnitSpec>& cases,
                                  std::vector<double>* sweep_ms) {
  std::vector<Depths> out;
  for (const UnitSpec& u : cases) {
    const Clock::time_point t0 = Clock::now();
    const fl::analysis::SweepResult sweep = fl::analysis::sweep_unit(
        u.kind, u.fmt, u.cfg.objective, u.cfg.tech, kThreads);
    const fl::analysis::Selection sel = fl::analysis::select_min_max_opt(sweep);
    sweep_ms->push_back(ms_since(t0));
    out.push_back({sel.min.stages, sel.opt.stages, sel.max.stages});
  }
  return out;
}

struct Campaign {
  UnitSpec unit;
  fl::analysis::SeuCampaignConfig camp;
};

std::vector<Campaign> draw_campaigns(const std::vector<UnitSpec>& cases,
                                     const std::vector<Depths>& depths,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Campaign> list;
  for (std::size_t u = 0; u < cases.size(); ++u) {
    for (const int d : {depths[u].min, depths[u].opt, depths[u].max}) {
      std::vector<int> counts(std::begin(kFaultLadder), std::end(kFaultLadder));
      std::shuffle(counts.begin(), counts.end(), rng);
      std::size_t next = 0;
      for (const fl::fault::Scheme s : kSchemes) {
        Campaign c;
        c.unit = cases[u];
        c.unit.cfg.stages = d;
        c.camp.faults = counts[next++];
        c.camp.seed = rng();
        c.camp.scheme = s;
        c.camp.threads = kThreads;
        c.camp.backend = kBackend;
        list.push_back(c);
      }
    }
  }
  std::shuffle(list.begin(), list.end(), rng);
  return list;
}

bool same_tallies(const fl::analysis::UnitSeuResult& a,
                  const fl::analysis::UnitSeuResult& b) {
  return a.injected == b.injected && a.masked == b.masked &&
         a.detected == b.detected && a.corrected == b.corrected &&
         a.silent == b.silent && a.corrupted == b.corrupted &&
         a.occupied_bits == b.occupied_bits &&
         a.pipeline_ffs == b.pipeline_ffs;
}

}  // namespace

void run_unit_sweep(const Options& opt, Report& r) {
  // The timed passes run without checkpoints. With them, one fsync per
  // 128 trials made trials_per_s swing twofold between runs on a shared
  // disk (IQR/median 0.82 over five seeds), drowning every other layer;
  // the checkpoint journal is timed per layer instead, in one checkpointed
  // pass of the traced run (default fsync interval, fresh directory).
  const fl::analysis::CampaignRunControl timed;
  fl::analysis::CampaignRunControl checkpointed;
  checkpointed.checkpoint_dir = "checkpoints";

  r.setting("backend", fl::rtl::to_string(kBackend));
  r.setting("threads", kThreads);
  r.setting("checkpointing", "off when timed; one traced pass with it on");
  r.setting("fsync_interval", checkpointed.fsync_interval);
  r.setting("chunk_trials", static_cast<long>(timed.chunk_trials));
  r.setting("vectors", fl::analysis::SeuCampaignConfig{}.vectors);

  // Set-up: the depth sweeps. It runs kSetupReps times here and, in the
  // untraced run, once more before every pass, where setup_s is taken;
  // every repetition must select the same depths.
  const std::vector<UnitSpec> cases = unit_cases();
  std::vector<double> setup_s;
  std::vector<double> sweep_ms;
  std::vector<Depths> depths;
  bool same_depths = true;
  const auto set_up = [&]() {
    const Clock::time_point t0 = Clock::now();
    std::vector<Depths> d = select_depths(cases, &sweep_ms);
    setup_s.push_back(seconds_since(t0));
    if (!depths.empty() && d != depths) same_depths = false;
    depths = std::move(d);
  };
  for (int rep = 0; rep < kSetupReps; ++rep) set_up();

  const std::vector<Campaign> list = draw_campaigns(cases, depths, opt.seed);
  r.setting("campaigns_per_pass", static_cast<long>(list.size()));

  // Every pass runs the same seeded list, so every pass (checkpointed or
  // not) must reproduce the first pass's tallies exactly.
  std::vector<fl::analysis::UnitSeuResult> first;
  long repeat_mismatch_trials = 0;
  long attempted = 0;
  long dropped = 0;
  const auto run_pass = [&](const fl::analysis::CampaignRunControl& control) {
    PassStats p;
    const Clock::time_point t0 = Clock::now();
    std::vector<fl::analysis::UnitSeuResult> results;
    results.reserve(list.size());
    for (const Campaign& c : list) {
      const Clock::time_point c0 = Clock::now();
      results.push_back(fl::analysis::run_unit_campaign(
          c.unit.kind, c.unit.fmt, c.unit.cfg, c.camp, control));
      p.call_us.push_back(us_since(c0));
      p.trials += results.back().injected;
    }
    p.wall_s = seconds_since(t0);
    for (std::size_t i = 0; i < list.size(); ++i) {
      attempted += list[i].camp.faults;
      dropped += list[i].camp.faults - results[i].injected;
      if (!first.empty() && !same_tallies(results[i], first[i])) {
        repeat_mismatch_trials += list[i].camp.faults;
      }
    }
    if (first.empty()) first = std::move(results);
    return p;
  };
  const auto pass = [&]() { return run_pass(timed); };

  if (!opt.trace) {
    setup_s.clear();  // the first set-ups pay the process's warm-up
    const std::vector<PassStats> passes =
        repeat_passes(opt.seconds, pass, set_up);
    report_campaign_end_to_end(r, setup_s, passes);
  } else {
    const AlternatedPasses run = alternate_passes(opt.seconds, pass);
    report_campaign_layers(r, run, kThreads);

    std::filesystem::remove_all(checkpointed.checkpoint_dir);
    std::filesystem::create_directories(checkpointed.checkpoint_dir);
    CounterDeltas journal;
    journal.begin();
    const PassStats ck = run_pass(checkpointed);
    journal.end();
    report_checkpoint(r, journal, 1);
    std::vector<double> plain;
    for (const PassStats& p : run.untraced) plain.push_back(p.wall_s);
    r.metric("fault.checkpoint_share", 1.0 - median(plain) / ck.wall_s,
             "ratio", static_cast<long>(plain.size()) + 1,
             "share of a checkpointed pass's wall the journal adds");
    if (run.spans.compile_us.empty()) {
      r.check("compile_spans", false, "bitsliced campaigns compiled nothing");
    } else {
      std::vector<double> ms;
      for (const double us : run.spans.compile_us) ms.push_back(us / 1e3);
      r.metric("rtl.compile_ms", median(ms), "ms",
               static_cast<long>(ms.size()), "p50 compile span");
    }
    // Layer probes at this workload's configurations: every distinct
    // (unit, depth) it ran, the sweeps it set up with, and the paper's
    // kernel built from this sweep's binary32 opt adder and multiplier.
    std::vector<UnitSpec> built;
    for (const Campaign& c : list) {
      const bool seen = std::any_of(built.begin(), built.end(),
                                    [&](const UnitSpec& s) {
                                      return s.kind == c.unit.kind &&
                                             s.fmt == c.unit.fmt &&
                                             s.cfg.stages == c.unit.cfg.stages;
                                    });
      if (!seen) built.push_back(c.unit);
    }
    fl::kernel::PeConfig pe;
    pe.adder_stages = depths[0].opt;  // binary32 adder
    pe.mult_stages = depths[2].opt;   // binary32 multiplier
    const Operands ops = campaign_operands(opt.seed, 16, pe.fmt);
    report_probes(r, probe_unit_build_ms(built, 3), summarize(sweep_ms),
                  probe_kernel(pe, ops.a, ops.b, 3),
                  probe_fp(ops.a.bits, ops.b.bits, pe.fmt));
    report_idle_serve(r);
  }

  // Correctness, outside the timed region: the bitsliced tallies must
  // equal the interpreted reference backend's on the same fault lists.
  long interp_mismatch = 0;
  long interp_mismatch_trials = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    fl::analysis::SeuCampaignConfig ref = list[i].camp;
    ref.backend = fl::rtl::EvalBackend::kInterpreted;
    const fl::analysis::UnitSeuResult res = fl::analysis::run_unit_campaign(
        list[i].unit.kind, list[i].unit.fmt, list[i].unit.cfg, ref);
    if (!same_tallies(res, first[i])) {
      ++interp_mismatch;
      interp_mismatch_trials += list[i].camp.faults;
    }
  }
  r.check("tallies_equal_interpreted", interp_mismatch == 0,
          std::to_string(interp_mismatch) + " of " +
              std::to_string(list.size()) + " campaigns differ");
  r.check("tallies_repeat_across_passes", repeat_mismatch_trials == 0,
          std::to_string(repeat_mismatch_trials) + " trials differ");
  r.check("depth_selection_repeats", same_depths,
          "sweep_unit + select_min_max_opt identical on all " +
              std::to_string(setup_s.size()) + " set-ups");
  FailTally& f = r.fails();
  f.attempted += attempted;
  f.dropped += dropped;
  f.tally_mismatch += repeat_mismatch_trials + interp_mismatch_trials;
}

}  // namespace perfbench
