// The parallel campaign engine's bit-identity contract, locked against
// tallies captured from the pre-parallel serial implementation: for a
// pinned seed every thread count — 1 (the inline serial path), 2, 8 —
// must reproduce those numbers exactly. Any scheduling dependence (work
// stealing, arrival-order reduction, shared-RNG draws) breaks these.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/seu.hpp"

namespace flopsim::analysis {
namespace {

const std::vector<int> kThreadCounts{1, 2, 8};

struct UnitGolden {
  int injected, masked, detected, corrected, silent, corrupted;
  long occupied;
  int ffs;
};

void expect_unit_golden(units::UnitKind kind, fp::FpFormat fmt, int stages,
                        fault::Scheme scheme, int faults,
                        const UnitGolden& g) {
  units::UnitConfig cfg;
  cfg.stages = stages;
  for (const int threads : kThreadCounts) {
    SeuCampaignConfig camp;
    camp.faults = faults;
    camp.scheme = scheme;
    camp.threads = threads;
    const UnitSeuResult r = run_unit_campaign(kind, fmt, cfg, camp);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(r.injected, g.injected);
    EXPECT_EQ(r.masked, g.masked);
    EXPECT_EQ(r.detected, g.detected);
    EXPECT_EQ(r.corrected, g.corrected);
    EXPECT_EQ(r.silent, g.silent);
    EXPECT_EQ(r.corrupted, g.corrupted);
    EXPECT_EQ(r.occupied_bits, g.occupied);
    EXPECT_EQ(r.pipeline_ffs, g.ffs);
  }
}

TEST(CampaignDeterminism, UnitCampaignMatchesSerialGolden) {
  // FF counts re-pinned after the absint sandwich corrected live_bits
  // declarations (fpadd mid-ripple under-declaration, fpmul tightening);
  // the tallies themselves are unchanged — fault sites are drawn from
  // occupied bits, not the declared widths.
  expect_unit_golden(units::UnitKind::kAdder, fp::FpFormat::binary32(), 5,
                     fault::Scheme::kNone, 24,
                     {24, 21, 0, 0, 3, 3, 813, 289});
  expect_unit_golden(units::UnitKind::kAdder, fp::FpFormat::binary32(), 5,
                     fault::Scheme::kTmr, 24,
                     {24, 21, 0, 3, 0, 3, 813, 289});
  expect_unit_golden(units::UnitKind::kMultiplier, fp::FpFormat::binary64(),
                     6, fault::Scheme::kParity, 24,
                     {24, 0, 24, 0, 0, 2, 2904, 546});
}

struct MatmulGolden {
  int injected, masked, detected, corrected, silent;
  int acc_injected, acc_silent;
  int latch_injected, latch_silent;
  int config_injected, config_silent;
};

/// The PE and campaign the pinned matmul legs run: perfbench's PE, n = 8.
kernel::PeConfig pinned_pe() {
  kernel::PeConfig pe;
  pe.fmt = fp::FpFormat::binary32();
  pe.adder_stages = 5;
  pe.mult_stages = 4;
  return pe;
}

MatmulSeuConfig pinned_matmul(fault::Scheme scheme, double config_fraction,
                              long scrub, int threads) {
  MatmulSeuConfig c;
  c.n = 8;
  c.faults = 64;
  c.seed = 0x5eed30;
  c.scheme = scheme;
  c.config_fraction = config_fraction;
  c.scrub_period_cycles = scrub;
  c.threads = threads;
  c.backend = rtl::EvalBackend::kBitsliced;
  return c;
}

void expect_matmul_golden(int adder_stages, int mult_stages, int faults,
                          double config_fraction, long scrub,
                          fault::Scheme scheme, const MatmulGolden& g) {
  kernel::PeConfig cfg;
  cfg.adder_stages = adder_stages;
  cfg.mult_stages = mult_stages;
  for (const int threads : kThreadCounts) {
    MatmulSeuConfig camp;
    camp.faults = faults;
    camp.config_fraction = config_fraction;
    camp.scrub_period_cycles = scrub;
    camp.scheme = scheme;
    camp.threads = threads;
    const MatmulSeuResult r = run_matmul_campaign(cfg, camp);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(r.injected, g.injected);
    EXPECT_EQ(r.masked, g.masked);
    EXPECT_EQ(r.detected, g.detected);
    EXPECT_EQ(r.corrected, g.corrected);
    EXPECT_EQ(r.silent, g.silent);
    EXPECT_EQ(r.acc_injected, g.acc_injected);
    EXPECT_EQ(r.acc_silent, g.acc_silent);
    EXPECT_EQ(r.latch_injected, g.latch_injected);
    EXPECT_EQ(r.latch_silent, g.latch_silent);
    EXPECT_EQ(r.config_injected, g.config_injected);
    EXPECT_EQ(r.config_silent, g.config_silent);
  }
}

// One fast-path campaign per perfbench matmul leg (none, ECC, config
// upsets unscrubbed and scrubbed), n = 8, its tallies pinned at every
// thread count. Every fault of a matmul campaign is a single-fault draw
// from its own seed, so these pin the draw along with the trials.
TEST(CampaignDeterminism, MatmulLegsMatchTheirPinnedTallies) {
  struct Leg {
    fault::Scheme scheme;
    double config_fraction;
    long scrub;
    MatmulGolden g;
  };
  const Leg legs[] = {
      {fault::Scheme::kNone, 0.0, 0, {64, 52, 0, 0, 12, 32, 7, 32, 5, 0, 0}},
      {fault::Scheme::kEcc, 0.0, 0, {64, 49, 0, 10, 5, 32, 0, 32, 5, 0, 0}},
      {fault::Scheme::kNone, 0.25, 0, {80, 65, 0, 0, 15, 32, 7, 32, 5, 16, 3}},
      {fault::Scheme::kNone, 0.25, 8, {80, 66, 0, 0, 14, 32, 7, 32, 5, 16, 2}},
  };
  for (const Leg& leg : legs) {
    for (const int threads : kThreadCounts) {
      const MatmulSeuResult r =
          run_matmul_campaign(pinned_pe(), pinned_matmul(leg.scheme,
                                                         leg.config_fraction,
                                                         leg.scrub, threads));
      SCOPED_TRACE("scheme=" + std::to_string(static_cast<int>(leg.scheme)) +
                   " config=" + std::to_string(leg.config_fraction) +
                   " scrub=" + std::to_string(leg.scrub) +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(r.injected, leg.g.injected);
      EXPECT_EQ(r.masked, leg.g.masked);
      EXPECT_EQ(r.detected, leg.g.detected);
      EXPECT_EQ(r.corrected, leg.g.corrected);
      EXPECT_EQ(r.silent, leg.g.silent);
      EXPECT_EQ(r.acc_injected, leg.g.acc_injected);
      EXPECT_EQ(r.acc_silent, leg.g.acc_silent);
      EXPECT_EQ(r.latch_injected, leg.g.latch_injected);
      EXPECT_EQ(r.latch_silent, leg.g.latch_silent);
      EXPECT_EQ(r.config_injected, leg.g.config_injected);
      EXPECT_EQ(r.config_silent, leg.g.config_silent);
      EXPECT_EQ(r.draws_exhausted, 0);
    }
  }
}

TEST(CampaignDeterminism, MatmulCampaignMatchesSerialGolden) {
  expect_matmul_golden(2, 2, 24, 0.0, 0, fault::Scheme::kNone,
                       {24, 15, 0, 0, 9, 12, 9, 12, 0, 0, 0});
  expect_matmul_golden(8, 5, 16, 0.5, 0, fault::Scheme::kNone,
                       {24, 21, 0, 0, 3, 8, 1, 8, 0, 8, 2});
  expect_matmul_golden(8, 5, 16, 0.25, 16, fault::Scheme::kEcc,
                       {20, 18, 0, 1, 1, 8, 0, 8, 0, 4, 1});
}

TEST(CampaignDeterminism, DepthSweepMatchesSerialGolden) {
  const std::vector<int> depths{1, 4, 9};
  // FF counts (and the FIT that scales with them) re-pinned after the
  // absint sandwich corrected live_bits declarations; occupancy, AVF, and
  // all tallies are unchanged at every depth.
  const std::vector<int> golden_ffs{38, 205, 481};
  const std::vector<long> golden_occ{192, 662, 1453};
  const std::vector<double> golden_avf{0.125, 0.0, 0.3125};
  const std::vector<double> golden_fit{0.0019000000000000002, 0.0,
                                       0.060124999999999998};
  for (const int threads : kThreadCounts) {
    SeuCampaignConfig camp;
    camp.faults = 16;
    camp.threads = threads;
    const std::vector<SeuDepthPoint> pts = seu_depth_sweep(
        units::UnitKind::kAdder, fp::FpFormat::binary32(), depths, camp);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ASSERT_EQ(pts.size(), depths.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      EXPECT_EQ(pts[i].stages, depths[i]);
      EXPECT_EQ(pts[i].pipeline_ffs, golden_ffs[i]);
      EXPECT_EQ(pts[i].occupied_bits, golden_occ[i]);
      // Doubles pinned exactly: the parallel sweep must be bit-identical,
      // not merely statistically equivalent.
      EXPECT_EQ(pts[i].avf, golden_avf[i]);
      EXPECT_EQ(pts[i].sdc_fit, golden_fit[i]);
    }
  }
}

// The auto path (threads = 0) must agree with the pinned counts too —
// whatever FLOPSIM_THREADS or hardware_concurrency resolves to.
TEST(CampaignDeterminism, AutoThreadCountAgreesWithSerial) {
  units::UnitConfig cfg;
  cfg.stages = 5;
  SeuCampaignConfig serial;
  serial.faults = 24;
  serial.threads = 1;
  SeuCampaignConfig auto_camp = serial;
  auto_camp.threads = 0;
  const UnitSeuResult a = run_unit_campaign(
      units::UnitKind::kAdder, fp::FpFormat::binary32(), cfg, serial);
  const UnitSeuResult b = run_unit_campaign(
      units::UnitKind::kAdder, fp::FpFormat::binary32(), cfg, auto_camp);
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.corrected, b.corrected);
  EXPECT_EQ(a.silent, b.silent);
  EXPECT_EQ(a.corrupted, b.corrupted);
}

// Checkpoint sidecars are part of the contract too: the writer puts chunk
// lines in grid order whatever order the workers finish them in, so one
// campaign writes the same bytes at every thread count.
std::map<std::string, std::string> sidecars_of(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(e.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[e.path().filename().string()] = bytes.str();
  }
  return files;
}

TEST(CampaignDeterminism, CheckpointSidecarsAreByteIdenticalAcrossThreads) {
  std::map<std::string, std::string> reference;
  for (const int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) /
         ("sidecar_order_" + std::to_string(threads)))
            .string();
    std::filesystem::remove_all(dir);
    CampaignRunControl ctl;
    ctl.checkpoint_dir = dir;
    ctl.chunk_trials = 4;

    units::UnitConfig ucfg;
    ucfg.stages = 5;
    SeuCampaignConfig unit;
    unit.faults = 96;
    unit.threads = threads;
    unit.backend = rtl::EvalBackend::kBitsliced;
    run_unit_campaign(units::UnitKind::kAdder, fp::FpFormat::binary32(), ucfg,
                      unit, ctl);

    kernel::PeConfig pe;
    pe.adder_stages = 4;
    pe.mult_stages = 3;
    MatmulSeuConfig matmul;
    matmul.n = 6;
    matmul.faults = 48;
    matmul.config_fraction = 0.25;
    matmul.threads = threads;
    matmul.backend = rtl::EvalBackend::kBitsliced;
    run_matmul_campaign(pe, matmul, ctl);

    SeuCampaignConfig sweep;
    sweep.faults = 8;
    sweep.threads = threads;
    seu_depth_sweep(units::UnitKind::kAdder, fp::FpFormat::binary32(),
                    {1, 2, 3, 4, 5, 6, 7, 8}, sweep, SeuRateModel{}, ctl);

    const std::map<std::string, std::string> files = sidecars_of(dir);
    ASSERT_EQ(files.size(), 3u);
    if (reference.empty()) {
      reference = files;
    } else {
      EXPECT_EQ(files, reference);
    }
  }
}

// The convergence stop reads only the grid-order prefix of done chunks:
// chunk 1 finishing before chunk 0 (which a worker that has not started
// chunk 0 yet makes happen) adds nothing until chunk 0 is done. The stop
// then fires at the first prefix that meets it, and chunks done past
// that prefix stay out.
TEST(CampaignStop, FiresAtTheFirstGridOrderPrefix) {
  // 8 trials with 0 silent: half-width 0.211; 16 trials: 0.131.
  const double threshold = 0.2;
  for (const bool chunk1_first : {true, false}) {
    SCOPED_TRACE(chunk1_first ? "chunk 1 first" : "in grid order");
    ConvergenceStop stop(32, 8, threshold, proportion_half_width);
    if (chunk1_first) {
      stop.done(1, 0);
      EXPECT_EQ(stop.prefix(), 0u);
      EXPECT_FALSE(stop.fired()) << "chunk 1 alone is no prefix";
      stop.done(0, 0);
    } else {
      stop.done(0, 0);
      EXPECT_EQ(stop.prefix(), 1u);
      EXPECT_FALSE(stop.fired());
      stop.done(1, 0);
    }
    EXPECT_TRUE(stop.fired());
    EXPECT_EQ(stop.prefix(), 2u) << "fires at chunks 0 and 1";
    stop.done(2, 0);
    EXPECT_EQ(stop.prefix(), 2u) << "a fired stop keeps its prefix";
  }

  // Chunk 0 holds 8 silent trials: the prefix {0} is far from the
  // threshold, {0, 1} still above it, and {0, 1, 2} meets it. Chunks 3
  // and 2 finishing first change nothing about where it fires.
  ConvergenceStop stop(64, 8, 0.2, proportion_half_width);
  ASSERT_GT(proportion_half_width(8, 16), 0.2);
  ASSERT_LE(proportion_half_width(8, 24), 0.2);
  stop.done(3, 0);
  stop.done(2, 0);
  EXPECT_EQ(stop.prefix(), 0u);
  stop.done(1, 0);
  EXPECT_FALSE(stop.fired());
  stop.done(0, 8);
  EXPECT_TRUE(stop.fired());
  EXPECT_EQ(stop.prefix(), 3u) << "chunk 3 is done but past the stop";

  // Off (threshold 0): the prefix follows the done chunks to the end.
  ConvergenceStop off(20, 8, 0.0, proportion_half_width);
  off.done(2, 4);
  off.done(1, 8);
  EXPECT_EQ(off.prefix(), 0u);
  off.done(0, 8);
  EXPECT_FALSE(off.fired());
  EXPECT_EQ(off.prefix(), 3u);
}

// Stopped and budgeted campaigns are bit-identical at every thread count:
// the stop keeps a grid-order prefix and the budget fixes its chunks
// before the grid runs, so tallies, run status and sidecars agree at 1, 2
// and 8 threads.
TEST(CampaignDeterminism, StoppedAndBudgetedCampaignsMatchAcrossThreads) {
  struct Outcome {
    std::vector<int> tallies;
    std::vector<long> status;
    std::map<std::string, std::string> sidecars;
  };
  const auto status_of = [](const CampaignRunStatus& r) {
    return std::vector<long>{r.interrupted ? 1 : 0,
                             static_cast<long>(r.stop_reason),
                             r.chunks_total,
                             r.chunks_completed,
                             r.chunks_restored,
                             r.trials_executed};
  };
  units::UnitConfig ucfg;
  ucfg.stages = 5;
  const double unit_stop =
      SeuRateModel{}.fit(run_unit_campaign(units::UnitKind::kAdder,
                                           fp::FpFormat::binary32(), ucfg,
                                           SeuCampaignConfig{})
                             .pipeline_ffs,
                         0.15);
  for (const bool budget : {false, true}) {
    std::map<int, Outcome> by_threads;
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(std::string(budget ? "budget" : "stop") +
                   " threads=" + std::to_string(threads));
      const std::string dir =
          (std::filesystem::path(::testing::TempDir()) /
           ((budget ? "budget_" : "stop_") + std::to_string(threads)))
              .string();
      std::filesystem::remove_all(dir);
      CampaignRunControl ctl;
      ctl.checkpoint_dir = dir;
      ctl.chunk_trials = 4;
      Outcome& out = by_threads[threads];

      SeuCampaignConfig unit;
      unit.faults = 160;
      unit.threads = threads;
      unit.backend = rtl::EvalBackend::kBitsliced;
      if (budget) {
        ctl.trial_budget = 22;
      } else {
        ctl.stop_half_width = unit_stop;
      }
      const UnitSeuResult u = run_unit_campaign(
          units::UnitKind::kAdder, fp::FpFormat::binary32(), ucfg, unit, ctl);
      EXPECT_TRUE(u.run.interrupted);
      EXPECT_GT(u.injected, 4);
      EXPECT_LT(u.injected, unit.faults);
      out.tallies = {u.injected, u.masked, u.detected, u.corrected, u.silent,
                     u.corrupted};
      out.status = status_of(u.run);

      kernel::PeConfig pe;
      pe.adder_stages = 4;
      pe.mult_stages = 3;
      MatmulSeuConfig matmul;
      matmul.n = 4;
      matmul.faults = 96;
      matmul.threads = threads;
      matmul.backend = rtl::EvalBackend::kInterpreted;
      if (budget) {
        ctl.trial_budget = 10;
      } else {
        ctl.stop_half_width = 0.12;
      }
      const MatmulSeuResult m = run_matmul_campaign(pe, matmul, ctl);
      EXPECT_TRUE(m.run.interrupted);
      EXPECT_GT(m.injected, 4);
      EXPECT_LT(m.injected, matmul.faults);
      for (const int v : {m.injected, m.masked, m.detected, m.corrected,
                          m.silent, m.acc_injected, m.acc_silent,
                          m.latch_injected, m.latch_silent}) {
        out.tallies.push_back(v);
      }
      for (const long v : status_of(m.run)) out.status.push_back(v);
      out.sidecars = sidecars_of(dir);
      EXPECT_EQ(out.sidecars.size(), 2u);
    }
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(std::string(budget ? "budget" : "stop") +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(by_threads[threads].tallies, by_threads[1].tallies);
      EXPECT_EQ(by_threads[threads].status, by_threads[1].status);
      EXPECT_EQ(by_threads[threads].sidecars, by_threads[1].sidecars);
    }
  }
}

// The sidecar file stem is the campaign's spec key, which folds every
// drawn fault: pinned for the scrubbed config leg, whose faults carry
// masks, stuck values and repair clocks.
TEST(CampaignDeterminism, MatmulSidecarStemIsPinned) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "matmul_sidecar_stem")
          .string();
  std::filesystem::remove_all(dir);
  CampaignRunControl ctl;
  ctl.checkpoint_dir = dir;
  run_matmul_campaign(pinned_pe(),
                      pinned_matmul(fault::Scheme::kNone, 0.25, 8, 2), ctl);
  const std::map<std::string, std::string> files = sidecars_of(dir);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files.begin()->first, "f27f5591d405132d.ckpt");
}

}  // namespace
}  // namespace flopsim::analysis
