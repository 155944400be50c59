// Kernel SEU fast path: a MatmulReplay verdict must equal a full
// LinearArrayMatmul::run under the same fault — at the snapshot
// boundaries, the skew and horizon edges, and the early exit, where
// resuming one PE from a golden snapshot could go wrong.
#include "kernel/matmul.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "fault/secded.hpp"

namespace flopsim::kernel {
namespace {

using fault::Fault;
using fault::FaultSite;

constexpr long kInterval = MatmulReplay::kSnapshotInterval;

enum class Target { kMult, kAdd, kStorage };

void attach(ProcessingElement& pe, Target target,
            fault::FaultInjector* injector) {
  switch (target) {
    case Target::kMult: pe.multiplier().set_latch_observer(injector); break;
    case Target::kAdd: pe.adder().set_latch_observer(injector); break;
    case Target::kStorage: pe.set_storage_observer(injector); break;
  }
}

PeConfig pe_config(bool ecc = false, bool fused = false) {
  PeConfig cfg;
  cfg.adder_stages = 4;
  cfg.mult_stages = 3;
  cfg.ecc_accumulators = ecc;
  cfg.use_fused_mac = fused;
  return cfg;
}

Matrix operand(int n, fp::FpFormat fmt, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n) * n);
  for (double& x : v) x = (static_cast<double>(rng() % 2001) - 1000.0) / 499.0;
  return matrix_from_doubles(v, n, fmt);
}

/// The top occupied data bit of a unit's stage latch: a flip there always
/// reaches the latch's consumer.
Fault latch_fault(const units::FpUnit& unit, int stage, long cycle) {
  const fault::LatchProfile profile =
      fault::profile_unit_latches(unit, 24, 0x5eed);
  const auto& lanes = profile.occupied.at(static_cast<std::size_t>(stage));
  for (int lane = 0; lane < rtl::kMaxSignals; ++lane) {
    const fp::u64 bits = lanes[static_cast<std::size_t>(lane)];
    if (bits == 0) continue;
    Fault f;
    f.cycle = cycle;
    f.index = stage;
    f.lane = lane;
    f.bit = 63 - std::countl_zero(bits);
    return f;
  }
  ADD_FAILURE() << "stage " << stage << " carries no data";
  return Fault{};
}

Fault accumulator_fault(int row, int bit, long cycle) {
  Fault f;
  f.site = FaultSite::kAccumulator;
  f.index = row;
  f.bit = bit;
  f.cycle = cycle;
  return f;
}

/// A golden replay of one array beside a second array that runs every
/// fault the slow way.
class ReplayBench {
 public:
  ReplayBench(int n, const PeConfig& cfg,
              fp::FpFormat fmt = fp::FpFormat::binary32())
      : a_(operand(n, fmt, 11)),
        b_(operand(n, fmt, 12)),
        array_(n, with_format(cfg, fmt)),
        reference_(n, with_format(cfg, fmt)),
        replay_(array_, a_, b_),
        pe_(array_.pe(0).config()) {
    for (int j = 0; j < n; ++j) replay_.record(j);
    clean_ = reference_.run(a_, b_);
  }

  long cycles() const { return clean_.cycles; }
  const ProcessingElement& pe(int j) const { return array_.pe(j); }

  /// The first cycle after `after` on which PE p reads accumulator `row`
  /// (multiplier + adder PEs): the read pairs with the product of a MAC
  /// issued to the row as it leaves the multiplier.
  long next_read(int p, int row, long after) const {
    const Schedule sched = array_.schedule();
    const long lag = array_.pe(p).mult_latency() - 1;
    for (long t = 0; t < cycles(); ++t) {
      const auto issue = scheduled_issue(sched, a_, b_, p, t);
      if (issue.has_value() && issue->row == row && t + lag > after) {
        return t + lag;
      }
    }
    return -1;
  }

  /// Replay fault `f` on PE p, expect the full run's verdict, and return
  /// the replay's.
  MatmulReplay::Verdict check(int p, Target target, const Fault& f) {
    fault::FaultInjector full({f});
    ProcessingElement& struck = reference_.pe(p);
    attach(struck, target, &full);
    const MatmulRun faulty = reference_.run(a_, b_);
    attach(struck, target, nullptr);

    fault::FaultInjector fast({f});
    attach(pe_, target, &fast);
    const MatmulReplay::Verdict v =
        replay_.replay(pe_, p, f.cycle, fault::last_active_cycle(f));
    attach(pe_, target, nullptr);

    EXPECT_EQ(v.corrupted,
              faulty.c.bits != clean_.c.bits || faulty.flags != clean_.flags);
    EXPECT_EQ(v.ecc_corrections, struck.ecc_corrections());
    EXPECT_EQ(v.ecc_detections, struck.ecc_detections());
    EXPECT_LE(v.cycles_stepped, cycles());
    return v;
  }

 private:
  static PeConfig with_format(PeConfig cfg, fp::FpFormat fmt) {
    cfg.fmt = fmt;
    return cfg;
  }

  Matrix a_;
  Matrix b_;
  LinearArrayMatmul array_;
  LinearArrayMatmul reference_;
  MatmulReplay replay_;
  ProcessingElement pe_;
  MatmulRun clean_;
};

TEST(MatmulReplay, GoldenPassLeavesTheArrayAsRunDoes) {
  for (const bool fused : {false, true}) {
    SCOPED_TRACE(fused ? "fused MAC" : "multiplier + adder");
    const int n = 5;  // below PL = 7: padded
    const Matrix a = operand(n, fp::FpFormat::binary32(), 1);
    const Matrix b = operand(n, fp::FpFormat::binary32(), 2);
    LinearArrayMatmul recorded(n, pe_config(true, fused));
    LinearArrayMatmul ran(n, pe_config(true, fused));
    MatmulReplay replay(recorded, a, b);
    for (int j = n - 1; j >= 0; --j) replay.record(j);
    const MatmulRun golden = recorded.result();
    const MatmulRun run = ran.run(a, b);
    EXPECT_EQ(golden.c.bits, run.c.bits);
    EXPECT_EQ(golden.flags, run.flags);
    EXPECT_EQ(golden.cycles, run.cycles);
    EXPECT_EQ(golden.mac_issues, run.mac_issues);
    EXPECT_EQ(golden.padded_issues, run.padded_issues);
    EXPECT_EQ(golden.hazards, run.hazards);
    for (int j = 0; j < n; ++j) {
      const ProcessingElement& pe = recorded.pe(j);
      EXPECT_TRUE(ran.pe(j).matches(pe.save(pe.config().storage_rows)))
          << "PE " << j;
    }
  }
}

TEST(MatmulReplay, FaultAtCycleZero) {
  ReplayBench bench(8, pe_config());
  bench.check(0, Target::kMult, latch_fault(bench.pe(0).multiplier(), 0, 0));
  bench.check(0, Target::kStorage, accumulator_fault(0, 30, 0));
  bench.check(3, Target::kAdd, latch_fault(bench.pe(3).adder(), 2, 0));
}

TEST(MatmulReplay, FaultInLeadingSkewExitsAtTheNextSnapshot) {
  ReplayBench bench(8, pe_config());
  const int p = 7;  // PE 7 idles through cycles 0..6
  const MatmulReplay::Verdict v = bench.check(
      p, Target::kMult, latch_fault(bench.pe(p).multiplier(), 0, 3));
  EXPECT_FALSE(v.corrupted);
  EXPECT_EQ(v.cycles_stepped, kInterval)
      << "a bubble flip drains long before the first snapshot";
}

TEST(MatmulReplay, FaultsOnAndJustBeforeASnapshotBoundary) {
  ReplayBench bench(8, pe_config());
  ASSERT_GT(bench.cycles(), 3 * kInterval);
  for (const long cycle : {2 * kInterval, 2 * kInterval - 1}) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    // PE 2 next reads row 7 at cycle 35: the flip is accumulated.
    EXPECT_TRUE(
        bench.check(2, Target::kStorage, accumulator_fault(7, 30, cycle))
            .corrupted);
    bench.check(2, Target::kStorage, accumulator_fault(0, 30, cycle));
    bench.check(2, Target::kMult,
                latch_fault(bench.pe(2).multiplier(), 1, cycle));
    bench.check(5, Target::kAdd, latch_fault(bench.pe(5).adder(), 3, cycle));
  }
}

TEST(MatmulReplay, FaultInTheLastCycle) {
  ReplayBench bench(8, pe_config());
  const long last = bench.cycles() - 1;
  EXPECT_TRUE(
      bench.check(0, Target::kStorage, accumulator_fault(0, 30, last))
          .corrupted);
  bench.check(7, Target::kAdd, latch_fault(bench.pe(7).adder(), 3, last));
}

TEST(MatmulReplay, ConfigFaultsPersistentAndRepairedOnABoundary) {
  ReplayBench bench(8, pe_config());
  const fault::LatchProfile profile =
      fault::profile_unit_latches(bench.pe(0).adder(), 24, 0x5eed);
  fault::CampaignSpec spec;
  spec.source = fault::CampaignSpec::Source::kCram;
  spec.profile = &profile;
  spec.horizon = bench.cycles();
  spec.count = 8;
  spec.seed = 7;
  const fault::FaultCampaign drawn = fault::FaultCampaign::make(spec);
  ASSERT_FALSE(drawn.empty());
  for (Fault f : drawn.faults()) {
    f.cycle = 20;
    f.repair_cycle = -1;
    SCOPED_TRACE("never repaired");
    EXPECT_EQ(bench.check(4, Target::kAdd, f).cycles_stepped,
              bench.cycles() - kInterval)
        << "a fault that never stops acting cannot exit early";
    f.repair_cycle = 3 * kInterval;
    SCOPED_TRACE("repaired on a boundary");
    bench.check(4, Target::kAdd, f);
  }
}

// A single-bit upset in a stored accumulator word that PE 1's next read of
// the row repairs: from that read on the datapath is the golden one and
// only the correction counter is ahead. The replay rejoins at the first
// snapshot boundary after the read (16 cycles after it resumed, here)
// instead of stepping to the end, and still reports the full run's
// verdict and counters.
void expect_repair_exits_at_the_rejoin(int bit) {
  ReplayBench bench(8, pe_config(/*ecc=*/true));
  constexpr int kPe = 1;
  constexpr int kRow = 2;
  constexpr long kStrike = 20;
  const long read = bench.next_read(kPe, kRow, kStrike);
  EXPECT_GT(read, kStrike);
  const MatmulReplay::Verdict v = bench.check(
      kPe, Target::kStorage, accumulator_fault(kRow, bit, kStrike));
  EXPECT_FALSE(v.corrupted);
  EXPECT_EQ(v.ecc_corrections, 1);
  EXPECT_EQ(v.ecc_detections, 0);
  const long resume = kStrike / kInterval * kInterval;
  const long rejoin = (read / kInterval + 1) * kInterval;
  EXPECT_EQ(v.cycles_stepped, rejoin - resume)
      << "the repaired datapath matches the golden one from read " << read;
  EXPECT_LT(v.cycles_stepped, bench.cycles() - resume);
}

TEST(MatmulReplay, EccCorrectedTrialExitsAtTheRejoin) {
  expect_repair_exits_at_the_rejoin(fault::kSecdedDataBits + 3);
}

TEST(MatmulReplay, EccCorrectedDataBitTrialExitsAtTheRejoin) {
  expect_repair_exits_at_the_rejoin(30);
}

TEST(MatmulReplay, FusedMacPeResumesMidRun) {
  ReplayBench bench(8, pe_config(false, /*fused=*/true));
  // The fused PE steps only its MAC unit: a multiplier latch is never hit.
  EXPECT_FALSE(bench
                   .check(3, Target::kMult,
                          latch_fault(bench.pe(3).multiplier(), 1, 40))
                   .corrupted);
  // The fused PE reads row 7 when it issues into it, at cycle 42.
  EXPECT_TRUE(
      bench.check(3, Target::kStorage, accumulator_fault(7, 30, 40))
          .corrupted);
}

// Drawn faults over every site, cycle and PE, at a padded and an unpadded
// size, with and without ECC, in both formats.
TEST(MatmulReplay, DrawnFaultsMatchFullRuns) {
  const struct {
    int n;
    bool ecc;
    bool fused;
    fp::FpFormat fmt;
  } benches[] = {
      {3, false, false, fp::FpFormat::binary32()},
      {9, true, false, fp::FpFormat::binary64()},
      {4, true, true, fp::FpFormat::binary32()},
  };
  for (const auto& bc : benches) {
    SCOPED_TRACE("n=" + std::to_string(bc.n) + " ecc=" +
                 std::to_string(bc.ecc) + " fused=" + std::to_string(bc.fused) +
                 " " + bc.fmt.name());
    ReplayBench bench(bc.n, pe_config(bc.ecc, bc.fused), bc.fmt);
    const fault::LatchProfile mult =
        fault::profile_unit_latches(bench.pe(0).multiplier(), 24, 3);
    const fault::LatchProfile add =
        fault::profile_unit_latches(bench.pe(0).adder(), 24, 4);
    std::mt19937_64 rng(99);
    const auto draw = [&](fault::CampaignSpec::Source source,
                          const fault::LatchProfile* profile, long scrub) {
      fault::CampaignSpec spec;
      spec.source = source;
      spec.profile = profile;
      spec.horizon = bench.cycles();
      spec.count = 12;
      spec.seed = rng();
      spec.rows = bc.n;
      spec.word_bits = bc.ecc ? fault::kSecdedWordBits : bc.fmt.total_bits();
      spec.scrub_period_cycles = scrub;
      return fault::FaultCampaign::make(spec).faults();
    };
    const auto check_all = [&](Target target, const std::vector<Fault>& fs) {
      for (const Fault& f : fs) {
        bench.check(static_cast<int>(rng() % bc.n), target, f);
      }
    };
    using Source = fault::CampaignSpec::Source;
    check_all(Target::kMult, draw(Source::kRandom, &mult, 0));
    check_all(Target::kAdd, draw(Source::kRandom, &add, 0));
    check_all(Target::kStorage, draw(Source::kAccumulator, nullptr, 0));
    check_all(Target::kMult, draw(Source::kCram, &mult, 0));
    check_all(Target::kAdd, draw(Source::kCram, &add, kInterval));
    check_all(Target::kAdd, draw(Source::kCram, &add, 5));
  }
}

}  // namespace
}  // namespace flopsim::kernel
