// Kernel SEU fast path: a MatmulReplay verdict, which re-walks only the
// accumulates an upset reaches and steps no PE, must equal a full
// LinearArrayMatmul::run under the same fault — at the skew and horizon
// edges, on and beside multiples of kInterval, and on every kind of
// upset. The interpreted reference, which re-steps only the struck PE,
// must equal the full run too.
#include "kernel/matmul.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/parallel.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "fault/secded.hpp"

namespace flopsim::kernel {
namespace {

using fault::Fault;
using fault::FaultSite;

/// A clock spacing the named cases strike on and beside, and some drawn
/// configuration upsets scrub at: where a replay resuming from periodic
/// golden snapshots would turn.
constexpr long kInterval = 16;

enum class Target { kMult, kAdd, kStorage };

void attach(ProcessingElement& pe, Target target,
            fault::FaultInjector* injector) {
  switch (target) {
    case Target::kMult: pe.multiplier().set_latch_observer(injector); break;
    case Target::kAdd: pe.adder().set_latch_observer(injector); break;
    case Target::kStorage: pe.set_storage_observer(injector); break;
  }
}

/// An injector attached to one of a PE's structures for one scope, so a
/// run that throws leaves nothing attached.
class Attached {
 public:
  Attached(ProcessingElement& pe, Target target, const Fault& f)
      : pe_(pe), target_(target), injector_({f}) {
    attach(pe_, target_, &injector_);
  }
  ~Attached() { attach(pe_, target_, nullptr); }
  Attached(const Attached&) = delete;
  Attached& operator=(const Attached&) = delete;

 private:
  ProcessingElement& pe_;
  Target target_;
  fault::FaultInjector injector_;
};

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
        replay_(array_, a_, b_) {
    for (int j = 0; j < a_.n; ++j) replay_.record(j);
    clean_ = reference_.run(a_, b_);
  }

  long cycles() const { return clean_.cycles; }
  const ProcessingElement& pe(int j) const { return array_.pe(j); }
  const MatmulRun& clean() const { return clean_; }

  /// The clocks of every accumulate PE p performs on `row`, from the
  /// schedule.
  std::vector<ProcessingElement::AccumulateClocks> ops(int p, int row) const {
    const Schedule sched = array_.schedule();
    std::vector<ProcessingElement::AccumulateClocks> out;
    for (long t = 0; t < cycles(); ++t) {
      const auto issue = scheduled_issue(sched, a_, b_, p, t);
      if (issue.has_value() && issue->row == row) {
        out.push_back(array_.pe(p).accumulate_clocks(t));
      }
    }
    return out;
  }

  /// The first cycle after `after` on which PE p reads accumulator `row`.
  long next_read(int p, int row, long after) const {
    for (const ProcessingElement::AccumulateClocks& op : ops(p, row)) {
      if (op.read > after) return op.read;
    }
    return -1;
  }

  /// Answer fault `f` on PE p the way a fast-path campaign does (the
  /// accumulator or the unit entry) and expect the full run's verdict.
  MatmulReplay::Verdict check(int p, Target target, const Fault& f) {
    const Reference ref = reference(p, target, f);
    if (target == Target::kStorage) return check_accumulator(p, f, ref);
    const MatmulReplay::Verdict v = unit(p, target, f);
    expect_verdict(v, ref, "unit entry");
    return v;
  }

  /// Answer accumulator fault `f` on PE p from the op log alone
  /// (MatmulReplay::accumulator_upset) and expect the full run's verdict.
  MatmulReplay::Verdict check_accumulator(int p, const Fault& f) {
    return check_accumulator(p, f, reference(p, Target::kStorage, f));
  }

  struct Reference {
    bool corrupted;
    long ecc_corrections;
    long ecc_detections;
  };

  /// The full-array run under fault `f` on PE p.
  Reference reference(int p, Target target, const Fault& f) {
    ProcessingElement& struck = reference_.pe(p);
    const Attached scope(struck, target, f);
    const MatmulRun faulty = reference_.run(a_, b_);
    return {faulty.c.bits != clean_.c.bits || faulty.flags != clean_.flags,
            struck.ecc_corrections(), struck.ecc_detections()};
  }

  /// The full-array run under fault `f` on PE p: the product, every PE as
  /// the run leaves it, and the struck PE's readout.
  MatmulRun full_run(int p, Target target, const Fault& f) {
    const Attached scope(reference_.pe(p), target, f);
    return reference_.run(a_, b_);
  }
  const ProcessingElement& full_run_pe(int p) const {
    return reference_.pe(p);
  }

  /// PE p alone under fault `f`, stepped through its whole schedule on
  /// `pe`, a clone of one of the array's PEs, and read out.
  LinearArrayMatmul::PeReadout alone(ProcessingElement& pe, int p,
                                     Target target, const Fault& f) const {
    const Attached scope(pe, target, f);
    reference_.run_pe(pe, p, a_, b_);
    return reference_.readout(pe);
  }

  /// Latch or configuration fault `f` on PE p through the unit entry
  /// (MatmulReplay::unit_upset) alone.
  MatmulReplay::Verdict unit(int p, Target target, const Fault& f) const {
    fault::FaultInjector injector({f});
    return replay_.unit_upset(
        p, target == Target::kMult ? PeUnit::kMultiplier : PeUnit::kAdder,
        f.cycle, fault::last_active_cycle(f), injector);
  }

 private:
  static void expect_verdict(const MatmulReplay::Verdict& v,
                             const Reference& ref, const char* entry) {
    EXPECT_EQ(v.corrupted, ref.corrupted) << entry;
    EXPECT_EQ(v.ecc_corrections, ref.ecc_corrections) << entry;
    EXPECT_EQ(v.ecc_detections, ref.ecc_detections) << entry;
  }

  MatmulReplay::Verdict check_accumulator(int p, const Fault& f,
                                          const Reference& ref) {
    fault::FaultInjector injector({f});
    const MatmulReplay::Verdict v =
        replay_.accumulator_upset(p, f.cycle, injector);
    expect_verdict(v, ref, "accumulator entry");
    return v;
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

TEST(MatmulReplay, FaultInLeadingSkewStepsNoPe) {
  ReplayBench bench(8, pe_config());
  const int p = 7;  // PE 7 idles through cycles 0..6
  EXPECT_FALSE(bench
                   .check(p, Target::kMult,
                          latch_fault(bench.pe(p).multiplier(), 0, 3))
                   .corrupted)
      << "a bubble flip reaches no accumulate";
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
  const fault::ProfileSites sites(profile);
  fault::CampaignSpec spec;
  spec.source = fault::CampaignSpec::Source::kCram;
  spec.sites = &sites;
  spec.horizon = bench.cycles();
  spec.count = 8;
  spec.seed = 7;
  const fault::FaultCampaign drawn = fault::FaultCampaign::make(spec);
  ASSERT_FALSE(drawn.empty());
  for (Fault f : drawn.faults()) {
    f.cycle = 20;
    f.repair_cycle = -1;
    SCOPED_TRACE("never repaired");
    bench.check(4, Target::kAdd, f);
    f.repair_cycle = 3 * kInterval;
    SCOPED_TRACE("repaired on a boundary");
    bench.check(4, Target::kAdd, f);
  }
}

// A single-bit upset in a stored accumulator word that PE 1's next read of
// the row repairs: from that read on the datapath is the golden one and
// only the correction counter is ahead. The trial steps no PE and still
// reports the full run's verdict and counters, the repair included.
void expect_repair_steps_no_pe(int bit) {
  ReplayBench bench(8, pe_config(/*ecc=*/true));
  constexpr int kPe = 1;
  constexpr int kRow = 2;
  constexpr long kStrike = 20;
  const long read = bench.next_read(kPe, kRow, kStrike);
  EXPECT_GT(read, kStrike);
  const MatmulReplay::Verdict v = bench.check(
      kPe, Target::kStorage, accumulator_fault(kRow, bit, kStrike));
  EXPECT_FALSE(v.corrupted);
  EXPECT_EQ(v.ecc_corrections, 1) << "repaired by the read at " << read;
  EXPECT_EQ(v.ecc_detections, 0);
}

TEST(MatmulReplay, EccCorrectedTrialStepsNoPe) {
  expect_repair_steps_no_pe(fault::kSecdedDataBits + 3);
}

TEST(MatmulReplay, EccCorrectedDataBitTrialStepsNoPe) {
  expect_repair_steps_no_pe(30);
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
    const fault::LatchProfile mult_profile =
        fault::profile_unit_latches(bench.pe(0).multiplier(), 24, 3);
    const fault::LatchProfile add_profile =
        fault::profile_unit_latches(bench.pe(0).adder(), 24, 4);
    const fault::ProfileSites mult(mult_profile);
    const fault::ProfileSites add(add_profile);
    std::mt19937_64 rng(99);
    const auto draw = [&](fault::CampaignSpec::Source source,
                          const fault::ProfileSites* sites, long scrub) {
      fault::CampaignSpec spec;
      spec.source = source;
      spec.sites = sites;
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
    const fault::LatchProfile mult_profile =
        fault::profile_unit_latches(bench.pe(0).multiplier(), 24, 5);
    const fault::LatchProfile add_profile =
        fault::profile_unit_latches(bench.pe(0).adder(), 24, 6);
    const fault::ProfileSites mult(mult_profile);
    const fault::ProfileSites add(add_profile);
    std::mt19937_64 rng(2024);
    const auto draw = [&](fault::CampaignSpec::Source source,
                          const fault::ProfileSites* sites, long scrub) {
      fault::CampaignSpec spec;
      spec.source = source;
      spec.sites = sites;
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

// The interpreted campaign reference re-steps only the struck PE, on its
// worker's own clone of one of the array's PEs. That rests on the PEs'
// independence: a full-array run with an upset on PE j leaves every other
// PE, so every other column and every other PE's flags, golden, and PE
// j's column, flags and ECC counters equal those of PE j re-run alone.
// Drawn upsets of every kind, on split and fused PEs, with and without
// ECC, over a padded array too; the lone re-runs spread over eight
// workers, each with its own PE clone, as the campaign's do.
TEST(MatmulReference, StruckPeAloneEqualsTheFullArrayRun) {
  const struct {
    int n;
    bool ecc;
    bool fused;
    fp::FpFormat fmt;
  } benches[] = {
      {3, true, false, fp::FpFormat::binary32()},  // padded
      {8, false, false, fp::FpFormat::binary32()},
      {8, true, false, fp::FpFormat::binary64()},
      {8, false, true, fp::FpFormat::binary32()},
      {8, true, true, fp::FpFormat::binary64()},
  };
  int observed = 0;  // upsets that change PE j's readout or counters
  for (const auto& bc : benches) {
    SCOPED_TRACE("n=" + std::to_string(bc.n) + " ecc=" +
                 std::to_string(bc.ecc) + " fused=" + std::to_string(bc.fused) +
                 " " + bc.fmt.name());
    ReplayBench bench(bc.n, pe_config(bc.ecc, bc.fused), bc.fmt);
    const fault::LatchProfile mult_profile =
        fault::profile_unit_latches(bench.pe(0).multiplier(), 24, 7);
    const fault::LatchProfile add_profile =
        fault::profile_unit_latches(bench.pe(0).adder(), 24, 8);
    const fault::ProfileSites mult(mult_profile);
    const fault::ProfileSites add(add_profile);
    std::mt19937_64 rng(2032);
    struct Trial {
      int pe;
      Target target;
      Fault fault;
    };
    std::vector<Trial> trials;
    using Source = fault::CampaignSpec::Source;
    const auto draw = [&](Target target, Source source,
                          const fault::ProfileSites* sites, long scrub) {
      fault::CampaignSpec spec;
      spec.source = source;
      spec.sites = sites;
      spec.horizon = bench.cycles();
      spec.count = target == Target::kStorage ? 16 : 6;
      spec.seed = rng();
      spec.rows = bc.n;
      // The word's bits, and with ECC its check bits too.
      spec.word_bits = bc.ecc ? fault::kSecdedWordBits : bc.fmt.total_bits();
      spec.scrub_period_cycles = scrub;
      const fault::FaultCampaign drawn = fault::FaultCampaign::make(spec);
      for (const Fault& f : drawn.faults()) {
        trials.push_back({static_cast<int>(rng() % bc.n), target, f});
      }
    };
    draw(Target::kStorage, Source::kAccumulator, nullptr, 0);
    draw(Target::kMult, Source::kRandom, &mult, 0);
    draw(Target::kAdd, Source::kRandom, &add, 0);
    draw(Target::kMult, Source::kCram, &mult, 0);
    draw(Target::kAdd, Source::kCram, &add, kInterval);

    std::vector<LinearArrayMatmul::PeReadout> lone(trials.size());
    std::vector<std::pair<long, long>> lone_ecc(trials.size());
    exec::parallel_for_grid(
        trials.size(), 8, [&](int, std::size_t begin, std::size_t end) {
          ProcessingElement pe = bench.pe(0).clone();
          for (std::size_t i = begin; i < end; ++i) {
            const Trial& t = trials[i];
            lone[i] = bench.alone(pe, t.pe, t.target, t.fault);
            lone_ecc[i] = {pe.ecc_corrections(), pe.ecc_detections()};
          }
        });

    for (std::size_t i = 0; i < trials.size(); ++i) {
      const Trial& t = trials[i];
      SCOPED_TRACE("trial " + std::to_string(i) + " on PE " +
                   std::to_string(t.pe));
      const MatmulRun full = bench.full_run(t.pe, t.target, t.fault);
      for (int k = 0; k < bc.n; ++k) {
        if (k == t.pe) continue;
        const ProcessingElement& golden = bench.pe(k);
        EXPECT_TRUE(bench.full_run_pe(k).matches(
            golden.save(golden.config().storage_rows)))
            << "PE " << k;
        for (int r = 0; r < bc.n; ++r) {
          EXPECT_EQ(full.c.at(r, k), bench.clean().c.at(r, k)) << "PE " << k;
        }
      }
      const ProcessingElement& struck = bench.full_run_pe(t.pe);
      for (int r = 0; r < bc.n; ++r) {
        EXPECT_EQ(full.c.at(r, t.pe),
                  lone[i].column[static_cast<std::size_t>(r)]);
      }
      EXPECT_EQ(struck.flags(), lone[i].flags);
      EXPECT_EQ(struck.ecc_corrections(), lone_ecc[i].first);
      EXPECT_EQ(struck.ecc_detections(), lone_ecc[i].second);
      if (full.c.bits != bench.clean().c.bits ||
          struck.flags() != bench.pe(t.pe).flags() ||
          lone_ecc[i] != std::pair<long, long>{0, 0}) {
        ++observed;
      }
    }
  }
  EXPECT_GT(observed, 20) << "the upsets must show";
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
// into the adder's output register as it writes back. No row differs, and
// the flag alone corrupts the run. The same flag flipped on into the
// multiplier's output register rides the walked product into the PE's
// flags at the row read, though no value changes.
TEST(MatmulFinisher, FlagsOnlyDivergence) {
  ReplayBench bench(8, pe_config());
  ASSERT_EQ(bench.clean().flags & fp::kFlagDivByZero, 0);
  const long strike = bench.ops(3, 4)[2].writeback;
  Fault f;
  f.cycle = strike;
  f.index = bench.pe(3).adder_latency() - 1;
  f.lane = fault::kFlagsLane;
  f.bit = 3;  // fp::kFlagDivByZero
  EXPECT_TRUE(bench.check(3, Target::kAdd, f).corrupted);

  f.cycle = bench.ops(3, 4)[2].read;
  f.index = bench.pe(3).mult_latency() - 1;
  EXPECT_TRUE(bench.check(3, Target::kMult, f).corrupted);
}

// A multiplier latch upset corrupts one product, and so one row: the
// product's walk through the struck multiplier carries the flip, its sum
// is walked again, and every later accumulate of row 7 reads the
// corrupted word. Here PE 0 reads row 7 at cycles 25 and 33.
TEST(MatmulFinisher, LatchUpsetWalksOneProductStepsNoPe) {
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
  EXPECT_TRUE(bench.check(kPe, Target::kMult, f).corrupted);
  const long read = kStrike + pe.mult_latency() - 1 - stage;
  ASSERT_EQ(bench.ops(kPe, 7)[2].read, read);
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

// --- the walks ----------------------------------------------------------

/// Records the bank the accumulator entry hands its observer, striking
/// nothing.
class BankRecorder : public StorageObserver {
 public:
  void on_storage(long cycle, std::vector<fp::u64>& acc) override {
    cycle_ = cycle;
    acc_ = acc;
  }
  void on_check_bits(long cycle, std::vector<std::uint8_t>& check) override {
    EXPECT_EQ(cycle, cycle_);
    check_ = check;
  }

  long cycle_ = -1;
  std::vector<fp::u64> acc_;
  std::vector<std::uint8_t> check_;
};

// The walked golden pass against a stepped PE, clock by clock: after every
// clock of every PE, the bank the accumulator entry rebuilds from the log
// (data words, and check bytes with ECC) and the flags equal the stepped
// PE's, over padded, unpadded and pad-overridden arrays (RAW hazards), both
// formats, both datapaths, with and without ECC.
TEST(MatmulReplay, WalkedBankAndFlagsEqualASteppedPeAfterEveryClock) {
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
      {16, true, true, fp::FpFormat::binary64(), -1},
      {3, true, false, fp::FpFormat::binary32(), 0},  // RAW hazards
      {4, false, true, fp::FpFormat::binary64(), 2},
  };
  for (const auto& bc : benches) {
    SCOPED_TRACE("n=" + std::to_string(bc.n) + " ecc=" +
                 std::to_string(bc.ecc) + " fused=" + std::to_string(bc.fused) +
                 " pad=" + std::to_string(bc.pad) + " " + bc.fmt.name());
    PeConfig cfg = pe_config(bc.ecc, bc.fused);
    cfg.fmt = bc.fmt;
    LinearArrayMatmul array(bc.n, cfg);
    if (bc.pad >= 0) array.set_pad_threshold(bc.pad);
    const Matrix a = operand(bc.n, bc.fmt, 21);
    const Matrix b = operand(bc.n, bc.fmt, 22);
    MatmulReplay replay(array, a, b);
    for (int j = 0; j < bc.n; ++j) replay.record(j);
    if (bc.pad >= 0) {
      EXPECT_GT(array.result().hazards, 0) << "the override must bite";
    }
    const Schedule sched = array.schedule();
    const auto rows = static_cast<std::size_t>(sched.n_eff);
    ProcessingElement stepped = array.pe(0).clone();
    for (int j = 0; j < bc.n; ++j) {
      stepped.clear();
      for (long t = 0; t < array.cycles(); ++t) {
        stepped.step(scheduled_issue(sched, a, b, j, t));
        std::vector<fp::u64> acc(rows);
        std::vector<std::uint8_t> check(bc.ecc ? rows : 0);
        for (std::size_t r = 0; r < rows; ++r) {
          acc[r] = stepped.stored_word(static_cast<int>(r));
          if (bc.ecc) check[r] = stepped.stored_check(static_cast<int>(r));
        }
        BankRecorder seen;
        ASSERT_FALSE(replay.accumulator_upset(j, t, seen).corrupted)
            << "PE " << j << " clock " << t;
        ASSERT_EQ(seen.cycle_, t);
        ASSERT_EQ(seen.acc_, acc) << "PE " << j << " clock " << t;
        ASSERT_EQ(seen.check_, check) << "PE " << j << " clock " << t;
        ASSERT_EQ(replay.flags_after(j, t), stepped.flags())
            << "PE " << j << " clock " << t;
      }
    }
  }
}

/// A flip of `bit` in lane `lane` of `unit`-stage latch `stage` at `cycle`.
Fault lane_fault(int stage, long cycle, int lane, int bit) {
  Fault f;
  f.cycle = cycle;
  f.index = stage;
  f.lane = lane;
  f.bit = bit;
  return f;
}

// With n = 8, PE 0's accumulates of rows 2-5 in odd phases are inside the
// adder at every multiple of kInterval, so a replay that can only hand a
// trial over where the pipelines hold no trial value never could. The
// walks carry a flipped product, and a flipped sum, of each of those rows
// to the readout without stepping.
TEST(MatmulFinisher, LatchUpsetOnARowInFlightAtEveryOldBoundary) {
  ReplayBench bench(8, pe_config());
  constexpr int kPe = 0;
  const ProcessingElement& pe = bench.pe(kPe);
  const int mult_out = pe.mult_latency() - 1;
  const int add_out = pe.adder_latency() - 1;
  for (int row = 2; row <= 5; ++row) {
    SCOPED_TRACE("row " + std::to_string(row));
    const auto ops = bench.ops(kPe, row);
    for (std::size_t k = 1; k < ops.size(); k += 2) {
      const long boundary = (ops[k].read / kInterval + 1) * kInterval;
      ASSERT_LE(boundary, ops[k].writeback) << "in flight at " << boundary;
    }
    EXPECT_TRUE(bench
                    .check(kPe, Target::kMult,
                           lane_fault(mult_out, ops[3].read,
                                      units::detail::kLaneResult, 20))
                    .corrupted);
    EXPECT_TRUE(bench
                    .check(kPe, Target::kAdd,
                           lane_fault(add_out, ops[3].writeback,
                                      units::detail::kLaneResult, 20))
                    .corrupted);
  }
}

// An adder latch flip strikes an accumulate whose read came before it: the
// walk keeps that golden read, carries the flip to the write-back, and the
// row's later reads see it. Under a padding override that makes the next
// accumulate of the row read before the struck write-back lands (a RAW
// hazard), that stale read keeps its golden word too. There the third
// accumulate also writes back after the fourth has read the row, so its
// struck sum is overwritten unread: the row the strike made differ still
// holds, for the fourth read, the second's write-back, in flight when the
// third read the row.
TEST(MatmulFinisher, AdderFlipAfterTheReadKeepsTheGoldenRead) {
  for (const int pad : {-1, 0}) {
    SCOPED_TRACE("pad " + std::to_string(pad));
    ReplayBench bench(operand(4, fp::FpFormat::binary32(), 31),
                      operand(4, fp::FpFormat::binary32(), 32), pe_config(),
                      pad);
    constexpr int kPe = 2;
    constexpr int kRow = 1;
    const auto ops = bench.ops(kPe, kRow);
    ASSERT_GE(ops.size(), 3u);
    if (pad == 0) {
      // A read on the write-back's own clock comes first: still stale.
      ASSERT_LE(ops[2].read, ops[1].writeback) << "the next read is stale";
      EXPECT_GT(bench.clean().hazards, 0);
    }
    for (int stage = 0; stage < bench.pe(kPe).adder_latency(); ++stage) {
      SCOPED_TRACE("stage " + std::to_string(stage));
      const long strike = ops[1].read + 1 + stage;
      bench.check(kPe, Target::kAdd,
                  latch_fault(bench.pe(kPe).adder(), stage, strike));
    }
    if (pad == 0) {
      ASSERT_EQ(ops.size(), 4u);
      ASSERT_LE(ops[3].read, ops[2].writeback) << "the last read misses it";
      ASSERT_GT(ops[3].writeback, ops[2].writeback) << "and overwrites it";
      ASSERT_GT(ops[3].read, ops[1].writeback) << "reading the second's sum";
      EXPECT_FALSE(bench
                       .check(kPe, Target::kAdd,
                              lane_fault(bench.pe(kPe).adder_latency() - 1,
                                         ops[2].writeback,
                                         units::detail::kLaneResult, 28))
                       .corrupted);
    }
  }
}

// Flips of data and flag bits in bubble latches: PE 7's multiplier and
// adder before its first issue reaches them (the leading skew) and PE 0's
// after its last accumulate has drained. A bubble is never evaluated and
// never written back, so each is masked, and no walk carries it.
TEST(MatmulFinisher, BubbleLatchFlipsAreMasked) {
  ReplayBench bench(8, pe_config());
  const long drained = bench.ops(0, 7).back().writeback + 1;
  const struct {
    int pe;
    Target target;
    long cycle;
  } bubbles[] = {
      {7, Target::kMult, 3},
      {7, Target::kAdd, 5},
      {0, Target::kMult, drained},
      {0, Target::kAdd, drained + 2},
  };
  for (const auto& at : bubbles) {
    SCOPED_TRACE("PE " + std::to_string(at.pe) + " cycle " +
                 std::to_string(at.cycle));
    for (const Fault& f :
         {lane_fault(1, at.cycle, units::detail::kLaneResult, 30),
          lane_fault(1, at.cycle, fault::kFlagsLane, 3)}) {
      EXPECT_FALSE(bench.check(at.pe, at.target, f).corrupted);
    }
  }
}

// A configuration upset in an adder stage, scrubbed back while an
// accumulate is inside the struck stage: the accumulate that latched there
// on the clock before the repair is struck, the one latched on the repair
// clock is not. The unit entry walks exactly the accumulates inside the
// active clocks.
TEST(MatmulFinisher, ConfigUpsetScrubbedWhileAnAccumulateIsInTheStage) {
  ReplayBench bench(8, pe_config(/*ecc=*/true));
  const fault::LatchProfile profile =
      fault::profile_unit_latches(bench.pe(0).adder(), 24, 0x5eed);
  const fault::ProfileSites sites(profile);
  fault::CampaignSpec spec;
  spec.source = fault::CampaignSpec::Source::kCram;
  spec.sites = &sites;
  spec.horizon = bench.cycles();
  spec.count = 4;
  spec.seed = 11;
  const fault::FaultCampaign drawn = fault::FaultCampaign::make(spec);
  ASSERT_FALSE(drawn.empty());
  constexpr int kPe = 5;
  for (Fault f : drawn.faults()) {
    f.cycle = 24;
    for (const long repair : {25L, 29L, 40L}) {
      SCOPED_TRACE("stage " + std::to_string(f.index) + " repaired at " +
                   std::to_string(repair));
      f.repair_cycle = repair;
      bench.check(kPe, Target::kAdd, f);
    }
  }
}

// A valid-bit flip that drops an accumulate gives the full run's verdict.
// On the fused PE the split units never step, so it is masked. On the
// split PE the dropped bundle's row tag stays queued and the full run
// refuses the undrained pipeline: the walk that drops it throws the same.
TEST(MatmulReplay, ValidLaneFlipThatDropsAnAccumulateEndsAsTheFullRun) {
  const Fault dropped = lane_fault(0, 30, fault::kValidLane, 0);
  {
    ReplayBench bench(8, pe_config(false, /*fused=*/true));
    for (const Target target : {Target::kMult, Target::kAdd}) {
      EXPECT_FALSE(bench.check(2, target, dropped).corrupted);
    }
  }
  ReplayBench bench(8, pe_config());
  for (const Target target : {Target::kMult, Target::kAdd}) {
    EXPECT_THROW(bench.reference(2, target, dropped), std::logic_error);
    EXPECT_THROW(bench.unit(2, target, dropped), std::logic_error);
  }
}

// A valid-lane flip that revives a bubble makes a unit emit a result with
// no accumulate in flight. Struck on the unit's first stage one clock
// after PE 0's last accumulate entered it, the bubble comes out after
// every real result, with no row tag left: the PE throws std::logic_error
// there, as a run whose PE never drains does. The front of an empty
// row-tag queue is undefined behaviour that a release build may still
// carry to "pipeline not drained", so the test checks the PE's message.
TEST(MatmulReplay, ValidLaneFlipThatRevivesABubbleThrows) {
  constexpr int kN = 4;
  const Matrix a = operand(kN, fp::FpFormat::binary32(), 11);
  const Matrix b = operand(kN, fp::FpFormat::binary32(), 12);
  for (const bool fused : {false, true}) {
    LinearArrayMatmul array(kN, pe_config(false, fused));
    const MatmulRun clean = array.run(a, b);
    ProcessingElement& pe = array.pe(0);
    const ProcessingElement::AccumulateClocks last =
        pe.accumulate_clocks(array.schedule().issues_per_pe() - 1);
    std::vector<std::pair<units::FpUnit*, long>> struck = {
        {&pe.accumulator_unit(), last.entry + 1}};
    if (!fused) struck.push_back({&pe.multiplier(), last.issue + 1});
    for (const auto& [unit, clock] : struck) {
      SCOPED_TRACE(std::string(fused ? "fused " : "split ") + unit->name());
      fault::FaultInjector injector({lane_fault(0, clock, fault::kValidLane, 0)});
      unit->set_latch_observer(&injector);
      try {
        array.run(a, b);
        ADD_FAILURE() << "the revived bubble was not caught";
      } catch (const std::logic_error& e) {
        EXPECT_NE(std::string(e.what()).find("no accumulate in flight"),
                  std::string::npos)
            << e.what();
      }
      unit->set_latch_observer(nullptr);
      EXPECT_EQ(array.run(a, b).c.bits, clean.c.bits);
    }
  }
}

}  // namespace
}  // namespace flopsim::kernel
