// Kernel SEU fast path: a MatmulReplay verdict must equal a full
// LinearArrayMatmul::run under the same fault — at the snapshot
// boundaries, the skew and horizon edges, and the early exit, where
// resuming one PE from a golden snapshot could go wrong, and in the
// finisher, which recomputes only the accumulates an upset reaches.
#include "kernel/matmul.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <utility>
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
              fp::FpFormat fmt = fp::FpFormat::binary32(), int pad = -1)
      : ReplayBench(operand(n, fmt, 11), operand(n, fmt, 12),
                    with_format(cfg, fmt), pad) {}

  /// Explicit operands; `pad` >= 0 overrides the padding threshold.
  ReplayBench(Matrix a, Matrix b, const PeConfig& cfg, int pad = -1)
      : a_(std::move(a)),
        b_(std::move(b)),
        array_(padded(a_.n, cfg, pad)),
        reference_(padded(a_.n, cfg, pad)),
        replay_(array_, a_, b_),
        pe_(array_.pe(0).clone()) {
    for (int j = 0; j < a_.n; ++j) replay_.record(j);
    clean_ = reference_.run(a_, b_);
  }

  long cycles() const { return clean_.cycles; }
  const ProcessingElement& pe(int j) const { return array_.pe(j); }
  const MatmulRun& clean() const { return clean_; }

  /// Every accumulate PE p performs on `row`: its read and write-back
  /// clocks, from the schedule. The multiplier + adder PE reads a row as
  /// the product leaves the multiplier and writes back when the adder
  /// finishes; the fused PE reads at issue.
  struct OpCycles {
    long read;
    long writeback;
  };
  std::vector<OpCycles> ops(int p, int row) const {
    const Schedule sched = array_.schedule();
    const ProcessingElement& pe = array_.pe(p);
    const bool fused = pe.config().use_fused_mac;
    std::vector<OpCycles> out;
    for (long t = 0; t < cycles(); ++t) {
      const auto issue = scheduled_issue(sched, a_, b_, p, t);
      if (!issue.has_value() || issue->row != row) continue;
      const long read = fused ? t : t + pe.mult_latency() - 1;
      out.push_back({read, fused ? t + pe.total_latency() - 1
                                 : read + pe.adder_latency()});
    }
    return out;
  }

  /// The first cycle after `after` on which PE p reads accumulator `row`.
  long next_read(int p, int row, long after) const {
    for (const OpCycles& op : ops(p, row)) {
      if (op.read > after) return op.read;
    }
    return -1;
  }

  /// Replay fault `f` on PE p, expect the full run's verdict, and return
  /// the replay's. An accumulator fault also goes through the finisher's
  /// own entry (check_accumulator).
  MatmulReplay::Verdict check(int p, Target target, const Fault& f) {
    const Reference ref = reference(p, target, f);
    fault::FaultInjector fast({f});
    attach(pe_, target, &fast);
    const MatmulReplay::Verdict v =
        replay_.replay(pe_, p, f.cycle, fault::last_active_cycle(f));
    attach(pe_, target, nullptr);

    EXPECT_EQ(v.corrupted, ref.corrupted);
    EXPECT_EQ(v.ecc_corrections, ref.ecc_corrections);
    EXPECT_EQ(v.ecc_detections, ref.ecc_detections);
    EXPECT_LE(v.cycles_stepped, cycles());
    if (target == Target::kStorage) check_accumulator(p, f, ref);
    return v;
  }

  /// Answer accumulator fault `f` on PE p from the op log alone
  /// (MatmulReplay::accumulator_upset) and expect the full run's verdict.
  MatmulReplay::Verdict check_accumulator(int p, const Fault& f) {
    return check_accumulator(p, f, reference(p, Target::kStorage, f));
  }

 private:
  struct Reference {
    bool corrupted;
    long ecc_corrections;
    long ecc_detections;
  };

  Reference reference(int p, Target target, const Fault& f) {
    fault::FaultInjector full({f});
    ProcessingElement& struck = reference_.pe(p);
    attach(struck, target, &full);
    const MatmulRun faulty = reference_.run(a_, b_);
    attach(struck, target, nullptr);
    return {faulty.c.bits != clean_.c.bits || faulty.flags != clean_.flags,
            struck.ecc_corrections(), struck.ecc_detections()};
  }

  MatmulReplay::Verdict check_accumulator(int p, const Fault& f,
                                          const Reference& ref) {
    fault::FaultInjector injector({f});
    const std::optional<MatmulReplay::Verdict> v =
        replay_.accumulator_upset(p, f.cycle, injector);
    if (!v.has_value()) {
      ADD_FAILURE() << "the finisher gave no verdict";
      return {};
    }
    EXPECT_EQ(v->corrupted, ref.corrupted) << "accumulator entry";
    EXPECT_EQ(v->ecc_corrections, ref.ecc_corrections) << "accumulator entry";
    EXPECT_EQ(v->ecc_detections, ref.ecc_detections) << "accumulator entry";
    EXPECT_EQ(v->cycles_stepped, 0) << "the accumulator entry steps nothing";
    return *v;
  }

  static PeConfig with_format(PeConfig cfg, fp::FpFormat fmt) {
    cfg.fmt = fmt;
    return cfg;
  }

  static LinearArrayMatmul padded(int n, const PeConfig& cfg, int pad) {
    LinearArrayMatmul array(n, cfg);
    if (pad >= 0) array.set_pad_threshold(pad);
    return array;
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

// --- the finisher -------------------------------------------------------

/// An n x n matrix of `fill` with column `col` set to `special`.
Matrix filled(int n, double fill, int col, double special) {
  std::vector<double> v(static_cast<std::size_t>(n) * n, fill);
  for (int i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i) * n + col] = special;
  }
  return matrix_from_doubles(v, n, fp::FpFormat::binary32());
}

// The finisher against the full-array reference on drawn upsets of every
// kind: multiplier and adder latches, accumulator data and check bits
// (with and without ECC), configuration upsets never repaired and
// scrubbed, over padded, unpadded and pad-overridden arrays, in both
// formats and both PE datapaths.
TEST(MatmulFinisher, DrawnUpsetsMatchFullRuns) {
  const struct {
    int n;
    bool ecc;
    bool fused;
    fp::FpFormat fmt;
    int pad;  // >= 0: padding threshold override
  } benches[] = {
      {3, false, false, fp::FpFormat::binary32(), -1},  // padded
      {3, true, true, fp::FpFormat::binary64(), -1},
      {8, true, false, fp::FpFormat::binary64(), -1},  // unpadded
      {8, false, true, fp::FpFormat::binary32(), -1},
      {16, false, false, fp::FpFormat::binary32(), -1},
      {16, true, false, fp::FpFormat::binary32(), -1},
      {3, true, false, fp::FpFormat::binary32(), 0},  // RAW hazards
      {4, false, true, fp::FpFormat::binary64(), 2},
  };
  for (const auto& bc : benches) {
    SCOPED_TRACE("n=" + std::to_string(bc.n) + " ecc=" +
                 std::to_string(bc.ecc) + " fused=" + std::to_string(bc.fused) +
                 " pad=" + std::to_string(bc.pad) + " " + bc.fmt.name());
    ReplayBench bench(bc.n, pe_config(bc.ecc, bc.fused), bc.fmt, bc.pad);
    if (bc.pad >= 0) {
      EXPECT_GT(bench.clean().hazards, 0) << "the override must bite";
    }
    const fault::LatchProfile mult =
        fault::profile_unit_latches(bench.pe(0).multiplier(), 24, 5);
    const fault::LatchProfile add =
        fault::profile_unit_latches(bench.pe(0).adder(), 24, 6);
    std::mt19937_64 rng(2024);
    const auto draw = [&](fault::CampaignSpec::Source source,
                          const fault::LatchProfile* profile, long scrub) {
      fault::CampaignSpec spec;
      spec.source = source;
      spec.profile = profile;
      spec.horizon = bench.cycles();
      spec.count = 8;
      spec.seed = rng();
      spec.rows = bc.n;
      spec.word_bits = fault::kSecdedWordBits;  // data and check bits
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
    check_all(Target::kStorage, draw(Source::kAccumulator, nullptr, 0));
    check_all(Target::kMult, draw(Source::kCram, &mult, 0));
    check_all(Target::kAdd, draw(Source::kCram, &add, 0));
    check_all(Target::kAdd, draw(Source::kCram, &add, kInterval));
    check_all(Target::kMult, draw(Source::kCram, &mult, 5));
  }
}

// Row 0 of PE 1 holds 7 after phase 6 and then adds 2^30, whose ulp (128)
// swallows a flip of the stored 7's last bit: the upset is computed
// through and absorbed. The same flip after the row's last write reaches
// C.
TEST(MatmulFinisher, FlipAbsorbedByALaterAccumulate) {
  constexpr int n = 8;
  ReplayBench bench(filled(n, 1.0, n - 1, 0x1p30), filled(n, 1.0, 0, 1.0),
                    pe_config());
  const auto ops = bench.ops(1, 0);
  ASSERT_EQ(ops.size(), static_cast<std::size_t>(n));
  EXPECT_FALSE(bench.check(1, Target::kStorage,
                           accumulator_fault(0, 0, ops[n - 2].writeback))
                   .corrupted);
  EXPECT_TRUE(bench.check(1, Target::kStorage,
                          accumulator_fault(0, 0, ops[n - 1].writeback))
                  .corrupted)
      << "a strike after the row's last write is read out as struck";
}

// A flip that lands while the row's accumulate is in flight (read before
// the strike, written back after it) is overwritten by that write-back:
// nothing reads it, so nothing is corrupted or corrected.
TEST(MatmulFinisher, FlipOverwrittenByAnInFlightWriteBack) {
  for (const bool ecc : {false, true}) {
    SCOPED_TRACE(ecc ? "ECC" : "no ECC");
    ReplayBench bench(8, pe_config(ecc));
    const auto ops = bench.ops(2, 5);
    for (const long strike : {ops[3].read, ops[3].writeback - 1}) {
      SCOPED_TRACE("strike " + std::to_string(strike));
      const MatmulReplay::Verdict v =
          bench.check_accumulator(2, accumulator_fault(5, 30, strike));
      EXPECT_FALSE(v.corrupted);
      EXPECT_EQ(v.ecc_corrections, 0);
      bench.check(2, Target::kStorage, accumulator_fault(5, 30, strike));
    }
  }
}

// An upset that changes only the flags: a divide-by-zero flag flipped on
// into the adder's output register as it writes back. No row differs, so
// the stepping replay hands over to the finisher at the first snapshot
// boundary after the strike, and the flag alone corrupts the run.
TEST(MatmulFinisher, FlagsOnlyDivergence) {
  ReplayBench bench(8, pe_config());
  ASSERT_EQ(bench.clean().flags & fp::kFlagDivByZero, 0);
  const long strike = bench.ops(3, 4)[2].writeback;
  Fault f;
  f.cycle = strike;
  f.index = bench.pe(3).adder_latency() - 1;
  f.lane = fault::kFlagsLane;
  f.bit = 3;  // fp::kFlagDivByZero
  const MatmulReplay::Verdict v = bench.check(3, Target::kAdd, f);
  EXPECT_TRUE(v.corrupted);
  const long resume = strike / kInterval * kInterval;
  EXPECT_EQ(v.cycles_stepped, (strike / kInterval + 1) * kInterval - resume);
}

// A multiplier latch upset corrupts one product, and so one row. Once the
// product has been written back, and before the row's next read, the PE's
// pipelines equal the golden ones: the replay hands over to the finisher
// at the next snapshot boundary instead of stepping to the last cycle.
// Here PE 0 reads row 7 at cycles 25 and 33, so boundary 32 qualifies (a
// row read within the adder latency before a boundary is still in flight
// there, carrying the trial's value).
TEST(MatmulFinisher, LatchUpsetHandsOverOnceItsPipelinesRejoin) {
  ReplayBench bench(8, pe_config());
  constexpr int kPe = 0;
  constexpr long kStrike = 25;
  const ProcessingElement& pe = bench.pe(kPe);
  // A high significand bit of the product in the multiplier's output
  // register, read into the add stage on the strike's own clock.
  const int stage = pe.mult_latency() - 1;
  Fault f;
  f.cycle = kStrike;
  f.index = stage;
  f.lane = units::detail::kLaneResult;
  f.bit = 20;
  const MatmulReplay::Verdict v = bench.check(kPe, Target::kMult, f);
  EXPECT_TRUE(v.corrupted);
  const long read = kStrike + pe.mult_latency() - 1 - stage;
  const long writeback = read + pe.adder_latency();
  const long handover = (writeback / kInterval + 1) * kInterval;
  ASSERT_EQ(bench.ops(kPe, 7)[2].read, read);
  ASSERT_GE(bench.ops(kPe, 7)[3].read, handover);
  const long resume = kStrike / kInterval * kInterval;
  EXPECT_EQ(v.cycles_stepped, handover - resume);
}

// PE 0 alone multiplies 2^100 by 2^100 in phase 7: its products overflow
// to infinity, so every row's sum is infinity whatever the row held, and
// only those products raise overflow. A flip of row 0 before its phase-7
// read is absorbed, and the verdict must still count the overflow flags
// of the products read after the strike.
TEST(MatmulFinisher, ProductFlagsAfterTheStrikeCount) {
  constexpr int n = 8;
  std::vector<double> bv(static_cast<std::size_t>(n) * n, 1.0);
  bv[static_cast<std::size_t>(n - 1) * n] = 0x1p100;  // b(7, 0)
  ReplayBench bench(filled(n, 1.0, n - 1, 0x1p100),
                    matrix_from_doubles(bv, n, fp::FpFormat::binary32()),
                    pe_config());
  ASSERT_NE(bench.clean().flags & fp::kFlagOverflow, 0);
  const auto ops = bench.ops(0, 0);
  EXPECT_FALSE(bench.check(0, Target::kStorage,
                           accumulator_fault(0, 3, ops[n - 2].writeback))
                   .corrupted);
}

// SECDED through the finisher: a check-bit strike the next read repairs
// (one correction, nothing corrupted), and a strike after the row's last
// write that the readout repairs.
TEST(MatmulFinisher, EccReadsRunTheCorrector) {
  ReplayBench bench(8, pe_config(/*ecc=*/true));
  const auto ops = bench.ops(4, 6);
  MatmulReplay::Verdict v = bench.check_accumulator(
      4, accumulator_fault(6, fault::kSecdedDataBits + 5, ops[2].writeback));
  EXPECT_FALSE(v.corrupted);
  EXPECT_EQ(v.ecc_corrections, 1);
  EXPECT_EQ(v.ecc_detections, 0);

  v = bench.check(4, Target::kStorage,
                  accumulator_fault(6, 12, ops.back().writeback + 1));
  EXPECT_FALSE(v.corrupted);
  EXPECT_EQ(v.ecc_corrections, 1) << "repaired by the readout";
}

// Strikes no read reaches: a row the schedule never issues to, a clock
// after the last one, and a check bit of a bank without check bytes. The
// fault injector decides where a strike lands; both entries must agree
// with the full run that these change nothing.
TEST(MatmulFinisher, StrikesNoReadReachesAreMasked) {
  for (const bool ecc : {false, true}) {
    SCOPED_TRACE(ecc ? "ECC" : "no ECC");
    ReplayBench bench(8, pe_config(ecc));
    std::vector<Fault> faults = {accumulator_fault(40, 7, 20),
                                 accumulator_fault(2, 7, bench.cycles())};
    if (!ecc) {
      faults.push_back(accumulator_fault(2, fault::kSecdedDataBits + 1, 20));
    }
    for (const Fault& f : faults) {
      SCOPED_TRACE("row " + std::to_string(f.index) + " bit " +
                   std::to_string(f.bit) + " cycle " + std::to_string(f.cycle));
      const MatmulReplay::Verdict v = bench.check(3, Target::kStorage, f);
      EXPECT_FALSE(v.corrupted);
      EXPECT_EQ(v.ecc_corrections, 0);
      EXPECT_EQ(v.ecc_detections, 0);
    }
  }
}

}  // namespace
}  // namespace flopsim::kernel
