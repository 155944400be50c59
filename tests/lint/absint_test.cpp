// The abstract-interpretation engine, tested at every layer: the
// known-bits x interval domain, the per-op transfer functions, the
// widening fixpoint solver, each DL4xx rule on a seeded defect, and the
// probe-vs-absint sandwich over the real unit zoo.
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/sweep.hpp"
#include "lint/absint.hpp"
#include "lint/lint.hpp"
#include "lint/report.hpp"
#include "units/converter_unit.hpp"
#include "units/fp_unit.hpp"
#include "fixtures.hpp"

namespace flopsim::lint {
namespace {

namespace sm = rtl::sem;
using fp::u64;

std::string rendered(const Report& r) {
  std::ostringstream os;
  write_text(os, r, /*include_notes=*/true);
  return os.str();
}

// --- the domain -----------------------------------------------------------

TEST(AbsVal, ConstantIsExact) {
  const AbsVal v = AbsVal::constant(42);
  EXPECT_TRUE(v.is_constant());
  EXPECT_EQ(v.constant_value(), 42u);
  EXPECT_TRUE(v.contains(42));
  EXPECT_FALSE(v.contains(43));
  EXPECT_EQ(v.width_bound(), 6);
}

TEST(AbsVal, AnyBoundsWidth) {
  const AbsVal v = AbsVal::any(8);
  EXPECT_TRUE(v.contains(0));
  EXPECT_TRUE(v.contains(255));
  EXPECT_FALSE(v.contains(256));
  EXPECT_EQ(v.width_bound(), 8);
  EXPECT_EQ(v.possible_bits(), 0xFFu);
}

TEST(AbsVal, AnyZeroWidthIsConstantZero) {
  const AbsVal v = AbsVal::any(0);
  EXPECT_TRUE(v.is_constant());
  EXPECT_EQ(v.constant_value(), 0u);
}

TEST(AbsVal, AnySignedCoversTwosComplementRange) {
  const AbsVal v = AbsVal::any_signed(8);
  EXPECT_EQ(v.lo, -128);
  EXPECT_EQ(v.hi, 127);
  EXPECT_EQ(v.width_bound(), 8);
}

TEST(AbsVal, JoinContainsBothOperands) {
  const AbsVal j = absval_join(AbsVal::constant(3), AbsVal::constant(5));
  EXPECT_TRUE(j.contains(3));
  EXPECT_TRUE(j.contains(5));
  // Bits where the two constants agree stay known: 3 = 011, 5 = 101.
  EXPECT_EQ(j.kmask & 1u, 1u);
  EXPECT_EQ(j.kval & 1u, 1u);
}

TEST(AbsVal, WidenIsAnUpperBoundAndStabilizes) {
  AbsVal prev = AbsVal::constant(1);
  AbsVal grown = absval_join(prev, AbsVal::constant(100));
  AbsVal w = absval_widen(prev, grown);
  EXPECT_TRUE(w.contains(1));
  EXPECT_TRUE(w.contains(100));
  // A second widening against a value the first already covers must be a
  // no-op — that is what makes the fixpoint terminate.
  const AbsVal w2 = absval_widen(w, absval_join(w, AbsVal::constant(100)));
  EXPECT_TRUE(w2 == w);
}

// --- transfer functions ---------------------------------------------------

AbsState entry_state() {
  AbsState s;
  s.reachable = true;
  s.lane[0] = AbsVal::any(8);
  s.lane[1] = AbsVal::any(8);
  return s;
}

TEST(AbsintTransfer, AddPropagatesCarryWidth) {
  AbsState s = entry_state();
  absint_transfer(sm::add(2, 0, 1), s);
  EXPECT_TRUE(s.lane[2].defined);
  EXPECT_LE(s.lane[2].width_bound(), 9);
  EXPECT_TRUE(s.lane[2].contains(255 + 255));
}

TEST(AbsintTransfer, ConstantsFoldThroughShifts) {
  AbsState s = entry_state();
  absint_transfer(sm::cst(2, 0x3), s);
  absint_transfer(sm::shl(2, 2, 4), s);
  EXPECT_TRUE(s.lane[2].is_constant());
  EXPECT_EQ(s.lane[2].constant_value(), 0x30u);
}

TEST(AbsintTransfer, BandMasksPossibleBits) {
  AbsState s = entry_state();
  absint_transfer(sm::band(2, 0, 0xF0), s);
  EXPECT_EQ(s.lane[2].possible_bits() & ~u64{0xF0}, 0u);
  EXPECT_EQ(s.lane[2].width_bound(), 8);
}

TEST(AbsintTransfer, UndecidedSelectJoinsBothArms) {
  AbsState s = entry_state();
  absint_transfer(sm::cst(2, 5), s);
  absint_transfer(sm::cst(3, 9), s);
  absint_transfer(sm::havoc(4, 1), s);  // the undecidable condition
  absint_transfer(sm::select(5, 4, 0, 2, 3), s);
  EXPECT_TRUE(s.lane[5].contains(5));
  EXPECT_TRUE(s.lane[5].contains(9));
}

TEST(AbsintTransfer, HavocKillsKnowledge) {
  AbsState s = entry_state();
  absint_transfer(sm::cst(2, 7), s);
  absint_transfer(sm::havoc(2, 12), s);
  EXPECT_FALSE(s.lane[2].is_constant());
  EXPECT_EQ(s.lane[2].width_bound(), 12);
}

// --- the fixpoint solver --------------------------------------------------

TEST(AbsintSolve, LinearChainConvergesInOnePass) {
  AbsProgram prog;
  prog.nodes.resize(2);
  prog.nodes[0].ops = {sm::add(1, 0, 0)};
  prog.nodes[0].succ = {1};
  prog.nodes[1].ops = {sm::band(2, 1, 0x1F)};

  AbsState entry;
  entry.reachable = true;
  entry.lane[0] = AbsVal::any(8);
  const SolveResult r = absint_solve(prog, entry);
  ASSERT_EQ(r.out.size(), 2u);
  EXPECT_LE(r.out[0].lane[1].width_bound(), 9);
  EXPECT_LE(r.out[1].lane[2].width_bound(), 5);
  EXPECT_LE(r.iterations, 4);
}

TEST(AbsintSolve, LoopWithUnboundedCounterTerminatesViaWidening) {
  // node 0 -> node 1 -> node 0: lane 0 grows by 1 each trip, so without
  // widening the interval climbs forever.
  AbsProgram prog;
  prog.nodes.resize(2);
  prog.nodes[0].ops = {sm::addi(0, 0, 1)};
  prog.nodes[0].succ = {1};
  prog.nodes[1].ops = {sm::nop()};
  prog.nodes[1].succ = {0};

  AbsState entry;
  entry.reachable = true;
  entry.lane[0] = AbsVal::constant(0);
  const SolveResult r = absint_solve(prog, entry);
  EXPECT_LT(r.iterations, 1000) << "widening failed to force convergence";
  EXPECT_TRUE(r.out[0].lane[0].defined);
  EXPECT_TRUE(r.out[0].lane[0].contains(1000));  // widened past any finite run
}

// --- seeded defects, one per DL4xx rule -----------------------------------

// A fully annotated three-piece chain whose declarations all hold:
//   sum:   lane2 = lane0 + lane1   (16-bit inputs, 17-bit result)
//   twist: lane3 = lane2 & 0xFF
//   pack:  lane0 = lane3 + 1
rtl::PieceChain annotated_chain() {
  rtl::PieceChain chain;

  rtl::Piece sum;
  sum.name = "sum";
  sum.group = "front";
  sum.delay_ns = 1.0;
  sum.area.slices = 8;
  // The backward demand pass is bit-granular: twist only observes the low
  // byte of lane 2, so only 8 of the 17 sum bits need flops here.
  sum.live_bits = 8;
  sum.sem = {sm::read(0), sm::read(1), sm::add(2, 0, 1)};
  sum.eval = [](rtl::SignalSet& s) { s[2] = s[0] + s[1]; };
  chain.push_back(sum);

  rtl::Piece twist;
  twist.name = "twist";
  twist.group = "mid";
  twist.delay_ns = 1.2;
  twist.area.slices = 6;
  twist.live_bits = 8;
  twist.sem = {sm::band(3, 2, 0xFF)};
  twist.eval = [](rtl::SignalSet& s) { s[3] = s[2] & 0xFF; };
  chain.push_back(twist);

  rtl::Piece pack;
  pack.name = "pack";
  pack.group = "mid";
  pack.delay_ns = 0.9;
  pack.area.slices = 4;
  pack.live_bits = 9;
  pack.sem = {sm::addi(0, 3, 1)};
  pack.eval = [](rtl::SignalSet& s) { s[0] = s[3] + 1; };
  chain.push_back(pack);

  return chain;
}

ChainContract annotated_contract() {
  ChainContract contract = testing::toy_contract();
  contract.input_widths = {16, 16};
  // Saturating stimuli drive the probe witness up to the proven bound, so
  // the sandwich collapses to exact on the internal boundaries.
  rtl::SignalSet maxed;
  maxed[0] = 0xFFFF;
  maxed[1] = 0xFFFF;
  contract.stimuli.push_back(maxed);
  return contract;
}

TEST(AbsintRules, CleanAnnotatedChainSandwichesExactly) {
  Options opts;
  ChainAbsint absint;
  const Report r =
      lint_chain(annotated_chain(), annotated_contract(), opts, &absint);
  EXPECT_TRUE(r.findings.empty()) << rendered(r);
  ASSERT_TRUE(absint.annotated);
  ASSERT_EQ(absint.boundaries.size(), 3u);
  EXPECT_TRUE(absint.boundaries[0].exact());
  EXPECT_EQ(absint.boundaries[0].upper, 8);  // demand-masked, not 17
  EXPECT_TRUE(absint.boundaries[1].exact());
  EXPECT_EQ(absint.boundaries[1].upper, 8);
  EXPECT_EQ(r.absint_subjects, 1);
  EXPECT_EQ(r.absint_boundaries, 3);
  EXPECT_GE(r.absint_exact, 2);
  EXPECT_GT(r.absint_checks, 0);
}

TEST(AbsintRules, DL400AnnotationThatUnderapproximatesItsEval) {
  rtl::PieceChain chain = annotated_chain();
  // The sem claims a 4-bit mask but the eval keeps 8 bits: concrete
  // replay must escape the abstract state.
  chain[1].sem = {sm::band(3, 2, 0xF)};
  const Report r = lint_chain(chain, annotated_contract());
  const auto hits = r.with_rule("DL400");
  ASSERT_GE(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].severity, Severity::kError);
  EXPECT_EQ(hits[0].lane, 3);
}

TEST(AbsintRules, DL401UnderdeclarationAtAnExactBoundaryIsProvable) {
  rtl::PieceChain chain = annotated_chain();
  // 4 declared vs. 8 proven: within the DL201 probe tolerance, but the
  // sandwich is exact here so the tolerance is dropped.
  chain[1].live_bits = 4;
  const Report r = lint_chain(chain, annotated_contract());
  const auto hits = r.with_rule("DL401");
  ASSERT_EQ(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].severity, Severity::kError);
  EXPECT_EQ(hits[0].boundary, 1);
  EXPECT_TRUE(r.with_rule("DL201").empty()) << rendered(r);
}

TEST(AbsintRules, DL403LaneDemandedByNoAnnotationIsProvablyDead) {
  rtl::PieceChain chain = annotated_chain();
  // Lane 4 is written upstream and genuinely read downstream (twist's
  // write depends on its prior contents, which the perturbation probe
  // detects), but no sem op demands a single bit of it — the same shape
  // as the sqrt unit's dead low radicand lane.
  chain[0].sem.push_back(sm::havoc(4, 0));
  chain[0].eval = [](rtl::SignalSet& s) {
    s[2] = s[0] + s[1];
    s[4] = s[0] & 0;
  };
  chain[1].sem.push_back(sm::havoc(4, 0));
  chain[1].eval = [](rtl::SignalSet& s) {
    s[3] = s[2] & 0xFF;
    s[4] = s[4] << 1;
  };
  const Report r = lint_chain(chain, annotated_contract());
  const auto hits = r.with_rule("DL403");
  ASSERT_GE(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_EQ(hits[0].lane, 4);
}

TEST(AbsintRules, DL404PieceWhoseGuardIsProvenOffIsUnreachable) {
  rtl::PieceChain chain = annotated_chain();
  // sum also clears lane 4, so a guard on lane 4's low bit is proven 0
  // and disables every op of the inserted piece.
  chain[0].sem.push_back(sm::cst(4, 0));
  chain[0].eval = [](rtl::SignalSet& s) {
    s[2] = s[0] + s[1];
    s[4] = 0;
  };
  rtl::Piece never;
  never.name = "never";
  never.group = "front";
  never.delay_ns = 0.5;
  never.area.slices = 2;
  never.live_bits = 8;
  never.sem = {sm::onif(sm::cst(5, 1), 4, 0),
               sm::onif(sm::copy(6, 2), 4, 0)};
  never.eval = [](rtl::SignalSet& s) {
    if ((s[4] & 1) != 0) {
      s[5] = 1;
      s[6] = s[2];
    }
  };
  chain.insert(chain.begin() + 1, never);

  ChainAbsint absint;
  const Report r = lint_chain(chain, annotated_contract(), Options{}, &absint);
  const auto hits = r.with_rule("DL404");
  ASSERT_EQ(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_EQ(hits[0].piece, 1);
  ASSERT_EQ(absint.piece_unreachable.size(), chain.size());
  for (std::size_t p = 0; p < chain.size(); ++p) {
    EXPECT_EQ(absint.piece_unreachable[p], p == 1) << "piece " << p;
  }
}

TEST(AbsintRules, DL405ReachableCarryOutOfDeclaredPhysicalWidth) {
  rtl::PieceChain chain = annotated_chain();
  // A 16-bit physical adder fed two full 16-bit operands: the carry out
  // is reachable and truncated.
  chain[0].sem = {sm::read(0), sm::read(1), sm::add(2, 0, 1, 16)};
  chain[0].eval = [](rtl::SignalSet& s) { s[2] = (s[0] + s[1]) & 0xFFFF; };
  chain[0].live_bits = 16;
  const Report r = lint_chain(chain, annotated_contract());
  const auto hits = r.with_rule("DL405");
  ASSERT_GE(hits.size(), 1u) << rendered(r);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_EQ(hits[0].piece, 0);
  EXPECT_EQ(hits[0].lane, 2);
}

// --- the zoo sandwich -----------------------------------------------------

// Every shipped unit is fully annotated: the engine must prove a width
// bound at every cut boundary (absint_boundaries > 0 with no probe-only
// fallback), and replay containment must actually have run.
TEST(AbsintZoo, SandwichCoversEveryUnit) {
  static constexpr units::UnitKind kKinds[] = {
      units::UnitKind::kAdder, units::UnitKind::kMultiplier,
      units::UnitKind::kDivider, units::UnitKind::kSqrt,
      units::UnitKind::kMac};
  Options opts;
  opts.vectors = 8;
  for (units::UnitKind kind : kKinds) {
    for (const fp::FpFormat& fmt : analysis::paper_formats()) {
      units::UnitConfig cfg;
      cfg.stages = 1;
      const units::FpUnit unit(kind, fmt, cfg);
      const Report r = lint_unit(unit, opts);
      EXPECT_EQ(r.absint_subjects, 1) << unit.name() << ": a piece lost its "
                                      << "annotation (probe-only fallback)";
      EXPECT_GT(r.absint_boundaries, 0) << unit.name();
      EXPECT_GT(r.absint_checks, 0) << unit.name();
      EXPECT_TRUE(r.clean()) << unit.name() << "\n" << rendered(r);
    }
  }
}

TEST(AbsintZoo, SandwichCoversEveryConverterPair) {
  Options opts;
  opts.vectors = 8;
  for (const fp::FpFormat& src : analysis::paper_formats()) {
    for (const fp::FpFormat& dst : analysis::paper_formats()) {
      if (src.total_bits() == dst.total_bits()) continue;
      units::UnitConfig cfg;
      cfg.stages = 1;
      const units::FormatConverter cvt(src, dst, cfg);
      const Report r = lint_converter(cvt, opts);
      EXPECT_EQ(r.absint_subjects, 1) << cvt.name();
      EXPECT_GT(r.absint_boundaries, 0) << cvt.name();
      EXPECT_TRUE(r.clean()) << cvt.name() << "\n" << rendered(r);
    }
  }
}

// Differential check: the proven upper bounds are a property of the chain,
// not of the stimulus battery — two disjoint batteries must agree on every
// upper bound, and each battery's witnesses must sit inside it.
TEST(AbsintZoo, UpperBoundsAreStimulusIndependent) {
  units::UnitConfig cfg;
  cfg.stages = 1;
  const units::FpUnit unit(units::UnitKind::kAdder, fp::FpFormat::binary32(),
                           cfg);
  Options a;
  a.vectors = 8;
  a.seed = 1;
  Options b;
  b.vectors = 16;
  b.seed = 99;
  const Report rep_a = lint_unit(unit, a);
  const Report rep_b = lint_unit(unit, b);
  EXPECT_EQ(rep_a.absint_boundaries, rep_b.absint_boundaries);
  EXPECT_TRUE(rep_a.clean()) << rendered(rep_a);
  EXPECT_TRUE(rep_b.clean()) << rendered(rep_b);
}

}  // namespace
}  // namespace flopsim::lint
