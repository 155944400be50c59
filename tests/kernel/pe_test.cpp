// Processing element: MAC semantics, latency, hazards, resources.
#include "kernel/pe.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "fp/ops.hpp"
#include "kernel/matmul.hpp"
#include "rtl/simulator.hpp"

namespace flopsim::kernel {
namespace {

fp::u64 enc(double x, fp::FpFormat fmt = fp::FpFormat::binary32()) {
  fp::FpEnv env = fp::FpEnv::paper();
  return fp::from_double(x, fmt, env).bits;
}

double dec(fp::u64 bits, fp::FpFormat fmt = fp::FpFormat::binary32()) {
  return fp::to_double_exact(fp::FpValue(bits, fmt));
}

PeConfig small_cfg() {
  PeConfig c;
  c.adder_stages = 4;
  c.mult_stages = 3;
  c.storage_rows = 64;
  return c;
}

TEST(Pe, SingleMacWritesBackAfterTotalLatency) {
  ProcessingElement pe(small_cfg());
  ASSERT_EQ(pe.total_latency(), 7);
  pe.step(ProcessingElement::MacIssue{enc(3.0), enc(4.0), 5});
  for (int t = 1; t < pe.total_latency(); ++t) {
    EXPECT_EQ(pe.acc(5), 0u) << "cycle " << t;
    EXPECT_FALSE(pe.drained());
    pe.step(std::nullopt);
  }
  EXPECT_TRUE(pe.drained());
  EXPECT_EQ(dec(pe.acc(5)), 12.0);
}

TEST(Pe, AccumulatesAcrossIssues) {
  ProcessingElement pe(small_cfg());
  // Two MACs to the same row, spaced beyond the hazard window.
  pe.step(ProcessingElement::MacIssue{enc(2.0), enc(3.0), 0});
  for (int t = 0; t < pe.total_latency(); ++t) pe.step(std::nullopt);
  pe.step(ProcessingElement::MacIssue{enc(5.0), enc(1.0), 0});
  for (int t = 0; t < pe.total_latency(); ++t) pe.step(std::nullopt);
  EXPECT_EQ(dec(pe.acc(0)), 11.0);
  EXPECT_EQ(pe.hazards(), 0);
  EXPECT_EQ(pe.mac_issues(), 2);
}

TEST(Pe, FullThroughputDistinctRows) {
  // One MAC per cycle to distinct rows: no hazards, all correct.
  ProcessingElement pe(small_cfg());
  for (int i = 0; i < 32; ++i) {
    pe.step(ProcessingElement::MacIssue{enc(i), enc(2.0), i});
  }
  for (int t = 0; t < pe.total_latency(); ++t) pe.step(std::nullopt);
  EXPECT_TRUE(pe.drained());
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(dec(pe.acc(i)), 2.0 * i) << i;
  }
  EXPECT_EQ(pe.hazards(), 0);
}

TEST(Pe, RawHazardDetectedInsideAdderWindow) {
  // Re-issuing the same row within the adder latency reads stale data.
  PeConfig cfg = small_cfg();
  ProcessingElement pe(cfg);
  pe.step(ProcessingElement::MacIssue{enc(1.0), enc(1.0), 7});
  pe.step(ProcessingElement::MacIssue{enc(1.0), enc(1.0), 7});
  for (int t = 0; t < 2 * pe.total_latency(); ++t) pe.step(std::nullopt);
  EXPECT_GT(pe.hazards(), 0);
  // Stale read: both adds saw acc=0, so the final value is 1, not 2.
  EXPECT_EQ(dec(pe.acc(7)), 1.0);
}

TEST(Pe, HazardWindowBoundaryIsAdderLatency) {
  // The accumulator read happens before the same-cycle writeback, so a
  // revisit spaced exactly La cycles still races; La + 1 is safe.
  PeConfig cfg = small_cfg();
  const int la = cfg.adder_stages;
  for (int spacing : {la, la + 1}) {
    ProcessingElement pe(cfg);
    pe.step(ProcessingElement::MacIssue{enc(1.0), enc(1.0), 3});
    for (int t = 1; t < spacing; ++t) pe.step(std::nullopt);
    pe.step(ProcessingElement::MacIssue{enc(1.0), enc(1.0), 3});
    for (int t = 0; t < 2 * pe.total_latency(); ++t) pe.step(std::nullopt);
    if (spacing == la) {
      EXPECT_GT(pe.hazards(), 0) << "spacing " << spacing;
    } else {
      EXPECT_EQ(pe.hazards(), 0) << "spacing " << spacing;
      EXPECT_EQ(dec(pe.acc(3)), 2.0);
    }
  }
}

TEST(Pe, MatchesSoftfloatMacBitExactly) {
  ProcessingElement pe(small_cfg());
  const fp::FpFormat fmt = fp::FpFormat::binary32();
  fp::FpEnv env = fp::FpEnv::paper();
  fp::FpValue acc = fp::make_zero(fmt);
  std::mt19937_64 rng(11);
  for (int i = 0; i < 50; ++i) {
    const fp::u64 a = rng() & fmt.bits_mask() & ~fmt.exp_mask();  // finite-ish
    const fp::u64 b = rng() & fmt.bits_mask() & ~fmt.exp_mask();
    pe.step(ProcessingElement::MacIssue{a, b, 0});
    while (!pe.drained()) pe.step(std::nullopt);
    acc = fp::add(acc,
                  fp::mul(fp::FpValue(a, fmt), fp::FpValue(b, fmt), env), env);
    ASSERT_EQ(pe.acc(0), acc.bits) << i;
  }
}

TEST(Pe, ClearResetsEverything) {
  ProcessingElement pe(small_cfg());
  pe.step(ProcessingElement::MacIssue{enc(1.0), enc(1.0), 0});
  pe.clear();
  EXPECT_EQ(pe.acc(0), 0u);
  EXPECT_TRUE(pe.drained());
  EXPECT_EQ(pe.mac_issues(), 0);
  for (int t = 0; t < 10; ++t) pe.step(std::nullopt);
  EXPECT_EQ(pe.acc(0), 0u);  // no ghost writeback
}

TEST(Pe, SetAccPreloadsForBlockChaining) {
  ProcessingElement pe(small_cfg());
  pe.set_acc(2, enc(10.0));
  pe.step(ProcessingElement::MacIssue{enc(2.0), enc(3.0), 2});
  while (!pe.drained()) pe.step(std::nullopt);
  EXPECT_EQ(dec(pe.acc(2)), 16.0);
}

TEST(Pe, ResourcesDecompose) {
  ProcessingElement pe(small_cfg());
  const auto total = pe.resources();
  const auto parts = pe.mac_resources() + pe.storage_resources() +
                     pe.control_resources();
  EXPECT_EQ(total, parts);
  EXPECT_EQ(pe.storage_resources().brams, 1);
  EXPECT_GT(pe.mac_resources().slices, pe.control_resources().slices);
  EXPECT_GT(pe.mac_resources().bmults, 0);
}

TEST(Pe, ControlGrowsWithLatency) {
  // The control shift registers track PL — the paper's Misc overhead.
  PeConfig shallow = small_cfg();
  PeConfig deep = small_cfg();
  deep.adder_stages = 16;
  deep.mult_stages = 9;
  EXPECT_GT(ProcessingElement(deep).control_resources().ffs,
            ProcessingElement(shallow).control_resources().ffs);
}

TEST(Pe, FrequencyIsSlowerUnit) {
  ProcessingElement pe(small_cfg());
  EXPECT_DOUBLE_EQ(
      pe.freq_mhz(),
      std::min(pe.adder().freq_mhz(), pe.multiplier().freq_mhz()));
}

TEST(Pe, InvalidRowThrows) {
  ProcessingElement pe(small_cfg());
  EXPECT_THROW(pe.step(ProcessingElement::MacIssue{0, 0, 64}),
               std::out_of_range);
  EXPECT_THROW(pe.step(ProcessingElement::MacIssue{0, 0, -1}),
               std::out_of_range);
}

TEST(Pe, InvalidStorageThrows) {
  PeConfig cfg = small_cfg();
  cfg.storage_rows = 0;
  EXPECT_THROW(ProcessingElement{cfg}, std::invalid_argument);
}

/// Overwrites accumulator row 0 with `word` at the end of clock `cycle`.
struct RowZeroStrike : StorageObserver {
  long cycle = -1;
  fp::u64 word = 0;
  void on_storage(long c, std::vector<fp::u64>& acc) override {
    if (c == cycle) acc[0] = word;
  }
};

// accumulate_clocks names the clocks step() acts on, on both datapaths:
// the multiplier takes the operands at the issue, a strike on row 0 after
// clock s reaches the read only if s < read and survives only if s >= the
// write-back, and the adder or MAC latches the sum's inputs at the entry.
// read_sees is step()'s hazard rule: a second accumulate of the row whose
// read falls on the first's write-back clock reads stale, one clock later
// it does not.
TEST(Pe, AccumulateClocksAreWhereStepActs) {
  for (const bool fused : {false, true}) {
    SCOPED_TRACE(fused ? "fused" : "split");
    PeConfig cfg = small_cfg();
    cfg.use_fused_mac = fused;
    constexpr long kIssue = 2;
    const ProcessingElement::AccumulateClocks at =
        ProcessingElement(cfg).accumulate_clocks(kIssue);
    EXPECT_EQ(at.issue, kIssue);
    EXPECT_LE(at.read, at.entry);
    EXPECT_LT(at.entry, at.writeback);
    const ProcessingElement::MacIssue mac{enc(2.0), enc(3.0), 0};
    for (long s = 0; s <= at.writeback + 1; ++s) {
      SCOPED_TRACE("strike after clock " + std::to_string(s));
      ProcessingElement pe(cfg);
      RowZeroStrike strike;
      strike.cycle = s;
      strike.word = enc(5.0);
      pe.set_storage_observer(&strike);
      pe.set_acc(0, enc(1.0));
      long entry = -1;
      for (long t = 0; t <= at.writeback + 2; ++t) {
        pe.step(t == kIssue ? std::optional(mac) : std::nullopt);
        if (!fused && t == kIssue) {
          EXPECT_TRUE(pe.multiplier().latches()[0].valid);
        }
        if (entry < 0 && pe.accumulator_unit().latches()[0].valid) entry = t;
      }
      EXPECT_EQ(entry, at.entry);
      EXPECT_EQ(dec(pe.acc(0)), s < at.read ? 11.0 : s < at.writeback ? 7.0
                                                                      : 5.0);
    }
    for (const long late : {0L, 1L}) {
      ProcessingElement pe(cfg);
      const long second = at.writeback + late - (at.read - at.issue);
      ASSERT_GT(second, kIssue);
      ASSERT_EQ(pe.accumulate_clocks(second).read, at.writeback + late);
      for (long t = 0; t <= second + pe.total_latency(); ++t) {
        pe.step(t == kIssue || t == second ? std::optional(mac)
                                           : std::nullopt);
      }
      EXPECT_EQ(pe.hazards() == 0, ProcessingElement::read_sees(
                                       at.writeback + late, at.writeback));
      EXPECT_EQ(pe.hazards() == 0, late == 1);
    }
  }
}

// A state saved mid-run and loaded into another PE continues exactly as
// the original does; a PE with other units refuses it.
TEST(Pe, SavedStateResumesInAnotherPe) {
  ProcessingElement original(small_cfg());
  ProcessingElement resumed(small_cfg());
  constexpr int issues = 40;
  const auto issue_at =
      [](int t) -> std::optional<ProcessingElement::MacIssue> {
    if (t >= issues) return std::nullopt;
    return ProcessingElement::MacIssue{enc(t % 9 + 1), enc(t % 4 + 2), t % 3};
  };
  ProcessingElement::State mid;
  for (int t = 0; t < issues + original.total_latency(); ++t) {
    if (t == 17) mid = original.save(16);
    original.step(issue_at(t));
  }
  resumed.restore(mid);
  EXPECT_TRUE(resumed.matches(mid));
  for (int t = 17; t < issues + resumed.total_latency(); ++t) {
    resumed.step(issue_at(t));
  }
  EXPECT_FALSE(resumed.matches(mid));
  EXPECT_TRUE(resumed.matches(original.save(16)));
  EXPECT_GT(original.hazards(), 0) << "rows revisit inside the window";

  PeConfig fused = small_cfg();
  fused.use_fused_mac = true;
  ProcessingElement other(fused);
  EXPECT_THROW(other.restore(mid), std::invalid_argument);
}

TEST(Pe, UnitCloneSharesTheChainAndStepsIdentically) {
  const units::FpUnit original(units::UnitKind::kAdder,
                               fp::FpFormat::binary64(),
                               small_cfg().adder_config());
  units::FpUnit fresh(units::UnitKind::kAdder, fp::FpFormat::binary64(),
                      small_cfg().adder_config());
  units::FpUnit clone = original.clone();
  EXPECT_EQ(&clone.pieces(), &original.pieces()) << "no chain rebuild";
  EXPECT_EQ(clone.plan().stage_begin, original.plan().stage_begin);
  std::mt19937_64 rng(5);
  for (int t = 0; t < 40; ++t) {
    const units::UnitInput in{rng(), rng(), (t & 1) != 0};
    const auto issue = t % 5 == 4 ? std::nullopt
                                  : std::optional<units::UnitInput>(in);
    clone.step(issue);
    fresh.step(issue);
    ASSERT_EQ(clone.latches(), fresh.latches()) << "cycle " << t;
  }
}

TEST(Pe, CloneStepsLikeAFreshPe) {
  for (const bool fused : {false, true}) {
    PeConfig cfg = small_cfg();
    cfg.use_fused_mac = fused;
    cfg.ecc_accumulators = true;
    ProcessingElement original(cfg);
    original.step(ProcessingElement::MacIssue{enc(1.5), enc(2.0), 0});
    ProcessingElement clone = original.clone();
    ProcessingElement fresh(cfg);
    EXPECT_EQ(&clone.adder().pieces(), &original.adder().pieces());
    EXPECT_EQ(&clone.multiplier().pieces(), &original.multiplier().pieces());
    EXPECT_EQ(&clone.accumulator_unit().pieces(),
              &original.accumulator_unit().pieces());
    EXPECT_EQ(clone.cycles(), 0) << "a clone starts cleared";
    EXPECT_EQ(clone.clone(100).config().storage_rows, 100);
    for (int t = 0; t < 40; ++t) {
      const auto issue =
          t < 30 ? std::optional<ProcessingElement::MacIssue>(
                       {enc(t % 7 + 1), enc(t % 3 + 0.5), t % 11})
                 : std::nullopt;
      clone.step(issue);
      fresh.step(issue);
    }
    EXPECT_TRUE(clone.matches(fresh.save(cfg.storage_rows)))
        << (fused ? "fused" : "split");
  }
}

TEST(Pe, ClonedArrayEqualsOneBuiltPeByPe) {
  constexpr int n = 5;  // below PL = 7: padded rows too
  PeConfig cfg = small_cfg();
  cfg.storage_rows = 16;
  std::mt19937_64 rng(3);
  Matrix a = Matrix::zero(n, cfg.fmt);
  Matrix b = Matrix::zero(n, cfg.fmt);
  for (fp::u64& x : a.bits) x = enc(static_cast<double>(rng() % 9) - 4);
  for (fp::u64& x : b.bits) x = enc(static_cast<double>(rng() % 7) - 3);
  LinearArrayMatmul array(n, cfg);
  const LinearArrayMatmul cloned = array.clone();
  LinearArrayMatmul replica = cloned.clone();
  const MatmulRun run = replica.run(a, b);

  // The same array stepped by hand, every PE constructed on its own.
  PeConfig wide = cfg;
  wide.storage_rows = array.pe(0).config().storage_rows;
  std::vector<ProcessingElement> pes;
  for (int j = 0; j < n; ++j) pes.emplace_back(wide);
  const Schedule sched = array.schedule();
  for (long t = 0; t < array.cycles(); ++t) {
    for (int j = 0; j < n; ++j) {
      pes[static_cast<std::size_t>(j)].step(
          scheduled_issue(sched, a, b, j, t));
    }
  }
  for (int j = 0; j < n; ++j) {
    EXPECT_TRUE(replica.pe(j).matches(
        pes[static_cast<std::size_t>(j)].save(wide.storage_rows)))
        << "PE " << j;
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(run.c.at(i, j), pes[static_cast<std::size_t>(j)].acc(i));
    }
  }
  const MatmulRun again = array.run(a, b);
  EXPECT_EQ(again.c.bits, run.c.bits);
  EXPECT_EQ(replica.result().c.bits, run.c.bits);
  EXPECT_EQ(again.flags, run.flags);
  EXPECT_EQ(run.c.bits, reference_gemm(a, b, cfg.fmt, cfg.rounding).bits);
}

// run_accumulate walks the stages as PipelineSim::step does: a stage that
// clears valid stops the bundle, and no later piece runs on it. On a toy
// chain whose second stage would revive the bundle, evaluating the whole
// chain regardless (rtl::evaluate_chain) would write a value back.
TEST(Pe, RunAccumulateStopsWhereValidDrops) {
  rtl::PieceChain chain(2);
  chain[0].name = "drop";
  chain[0].eval = [](rtl::SignalSet& s) { s.valid = false; };
  chain[1].name = "revive";
  chain[1].eval = [](rtl::SignalSet& s) {
    s.valid = true;
    s[units::detail::kLaneResult] = 42;
  };
  rtl::PipelinePlan plan;
  plan.stage_begin = {0, 1, 2};
  const units::UnitInput in{1, 2, false};
  EXPECT_FALSE(run_accumulate(chain, plan, in).has_value());

  rtl::PipelineSim sim(&chain, plan);
  sim.step(units::FpUnit::pack(in));
  sim.step(std::nullopt);
  EXPECT_FALSE(sim.output().valid) << "the pipeline writes nothing back";

  // Without the drop, both carry the bundle to the end alike.
  chain[0].eval = [](rtl::SignalSet& s) { s.flags |= 3; };
  rtl::PipelineSim kept(&chain, plan);
  kept.step(units::FpUnit::pack(in));
  kept.step(std::nullopt);
  const std::optional<units::UnitOutput> out = run_accumulate(chain, plan, in);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->result, kept.output()[units::detail::kLaneResult]);
  EXPECT_EQ(out->flags, kept.output().flags);
}

// With an observer attached, run_accumulate shows it each stage's latch on
// the clock PipelineSim::step shows it, the stages after valid drops
// included: an upset there can still revive the bundle.
TEST(Pe, RunAccumulateShowsEveryStageToItsObserver) {
  rtl::PieceChain chain(2);
  chain[0].name = "drop";
  chain[0].eval = [](rtl::SignalSet& s) { s.valid = false; };
  chain[1].name = "mark";
  chain[1].eval = [](rtl::SignalSet& s) { s[units::detail::kLaneResult] = 42; };
  rtl::PipelinePlan plan;
  plan.stage_begin = {0, 1, 2};
  const units::UnitInput in{1, 2, false};

  struct Seen {
    long cycle;
    int stage;
    rtl::SignalSet latch;
  };
  struct Recorder : rtl::LatchObserver {
    void on_latch(long cycle, int stage, rtl::SignalSet& latch) override {
      seen.push_back({cycle, stage, latch});
    }
    std::vector<Seen> seen;
  };
  constexpr long kEntry = 3;
  Recorder walked;
  EXPECT_FALSE(run_accumulate(chain, plan, in, kEntry, &walked).has_value());
  Recorder stepped;
  rtl::PipelineSim sim(&chain, plan);
  sim.set_latch_observer(&stepped);
  for (long t = 0; t < kEntry; ++t) sim.step(std::nullopt);
  sim.step(units::FpUnit::pack(in));
  sim.step(std::nullopt);
  ASSERT_EQ(walked.seen.size(), 2u);
  for (const Seen& w : walked.seen) {
    SCOPED_TRACE("stage " + std::to_string(w.stage));
    EXPECT_EQ(w.cycle, kEntry + w.stage);
    // Stage s holds the bundle on clock entry + s, the (s+1)-th latch the
    // simulator showed from then on.
    const Seen& s = stepped.seen[static_cast<std::size_t>(
        (w.cycle * plan.stages()) + (plan.stages() - 1 - w.stage))];
    EXPECT_EQ(s.cycle, w.cycle);
    EXPECT_EQ(s.stage, w.stage);
    EXPECT_EQ(s.latch, w.latch);
  }

  // An observer that sets valid again after the drop revives the bundle
  // in the walk as it would in the pipeline.
  struct Revive : rtl::LatchObserver {
    void on_latch(long, int stage, rtl::SignalSet& latch) override {
      if (stage == 0) latch.valid = true;
    }
  } revive;
  const std::optional<units::UnitOutput> out =
      run_accumulate(chain, plan, in, kEntry, &revive);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->result, 42u);
}

}  // namespace
}  // namespace flopsim::kernel
