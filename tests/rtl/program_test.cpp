// CompiledProgram and the Evaluator backends: the compiled program runs
// every piece of the chain in stage order, honours the per-stage valid
// gate, and the interpreted / compiled / bitsliced evaluators answer every
// upset with identical results on real units.
#include "rtl/program.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fault/campaign.hpp"
#include "rtl/evaluator.hpp"
#include "units/fp_unit.hpp"

namespace flopsim::rtl {
namespace {

Piece piece(const char* name, std::function<void(SignalSet&)> eval) {
  Piece p;
  p.name = name;
  p.group = "test";
  p.delay_ns = 1.0;
  p.live_bits = 8;
  p.eval = std::move(eval);
  return p;
}

SignalSet stimulus(fp::u64 a) {
  SignalSet s;
  s.lane[0] = a;
  s.valid = true;
  return s;
}

// A three-piece chain with a constant piece, a result piece and a piece
// whose write nothing reads: the compiled program runs all three.
PieceChain three_way_chain() {
  PieceChain chain;
  chain.push_back(piece("konst", [](SignalSet& s) { s[3] = 42; }));
  chain.push_back(piece("use", [](SignalSet& s) { s[1] = s[0] + s[3]; }));
  chain.push_back(piece("dead", [](SignalSet& s) { s[2] = s[0] * 5; }));
  return chain;
}

CompileContract three_way_contract() {
  CompileContract contract;
  contract.input_lanes = {0};
  contract.result_lane = 1;
  for (const fp::u64 a : {0ull, 1ull, 7ull, 0xDEADBEEFull}) {
    contract.stimuli.push_back(stimulus(a));
  }
  return contract;
}

TEST(CompiledProgram, KeepsDeadAndConstantPieces) {
  const PieceChain chain = three_way_chain();
  PipelinePlan plan;
  plan.stage_begin = {0, static_cast<int>(chain.size())};
  const CompiledProgram prog =
      compile_program(chain, plan, three_way_contract());

  // Every lane matches the chain, the unread one included, on values
  // outside the probe stimuli too.
  for (const fp::u64 a : {3ull, 0x123456789ull}) {
    SignalSet ref = stimulus(a);
    evaluate_chain(chain, ref);
    SignalSet got = stimulus(a);
    prog.run(got, 0, prog.stages());
    EXPECT_EQ(got, ref) << "a=" << a;
  }
}

TEST(CompiledProgram, InvalidBundlesFlowThroughUnevaluated) {
  const PieceChain chain = three_way_chain();
  PipelinePlan plan;
  plan.stage_begin = {0, static_cast<int>(chain.size())};
  const CompiledProgram prog =
      compile_program(chain, plan, three_way_contract());
  SignalSet bubble = stimulus(9);
  bubble.valid = false;
  const SignalSet before = bubble;
  prog.run(bubble, 0, prog.stages());
  EXPECT_EQ(bubble.lane, before.lane);
}

CompileContract unit_contract(const units::FpUnit& unit, int vectors,
                              std::uint64_t seed) {
  CompileContract contract;
  contract.input_lanes = {units::detail::kLaneInA, units::detail::kLaneInB, units::detail::kLaneInCtl,
                          units::detail::kLaneInC};
  contract.result_lane = units::detail::kLaneResult;
  for (const units::UnitInput& in : fault::campaign_workload(
           unit.kind(), unit.format(), vectors, seed)) {
    contract.stimuli.push_back(units::FpUnit::pack(in));
  }
  return contract;
}

// Real units: the compiled program reproduces evaluate_chain on every
// stimulus, every lane included.
TEST(CompiledProgram, RealUnitsCompileCleanAndMatchTheChain) {
  for (const units::UnitKind kind :
       {units::UnitKind::kAdder, units::UnitKind::kMultiplier}) {
    for (const fp::FpFormat fmt :
         {fp::FpFormat::binary32(), fp::FpFormat::binary64()}) {
      units::UnitConfig cfg;
      cfg.stages = kind == units::UnitKind::kAdder ? 5 : 6;
      const units::FpUnit unit(kind, fmt, cfg);
      const CompileContract contract = unit_contract(unit, 16, 0x5eed);
      const CompiledProgram prog =
          compile_program(unit.pieces(), unit.plan(), contract);

      EXPECT_EQ(prog.stages(), unit.plan().stages());
      EXPECT_FALSE(prog.stats().alters_valid) << unit.name();
      EXPECT_FALSE(prog.stats().nondeterministic) << unit.name();
      for (const SignalSet& s : contract.stimuli) {
        SignalSet ref = s;
        evaluate_chain(unit.pieces(), ref);
        SignalSet got = s;
        prog.run(got, 0, prog.stages());
        EXPECT_EQ(got, ref) << unit.name();
      }
    }
  }
}

// Drive `upsets` through all three backends bound to `contract`'s
// stimuli and compare every UpsetTrial field. Returns how many upsets
// struck an occupied latch.
int expect_backends_agree(const units::FpUnit& unit,
                          const CompileContract& contract,
                          const std::vector<LatchUpset>& upsets) {
  const int vectors = static_cast<int>(contract.stimuli.size());
  const long horizon = vectors + unit.latency() + 2;
  std::unique_ptr<Evaluator> interp = make_evaluator(
      EvalBackend::kInterpreted, unit.pieces(), unit.plan(), contract);
  std::unique_ptr<Evaluator> compiled = make_evaluator(
      EvalBackend::kCompiled, unit.pieces(), unit.plan(), contract);
  std::unique_ptr<Evaluator> sliced = make_evaluator(
      EvalBackend::kBitsliced, unit.pieces(), unit.plan(), contract);
  EXPECT_EQ(interp->compile_stats(), nullptr);
  EXPECT_NE(compiled->compile_stats(), nullptr);
  for (Evaluator* ev : {interp.get(), compiled.get(), sliced.get()}) {
    ev->bind(contract.stimuli, horizon);
    EXPECT_EQ(ev->stages(), unit.plan().stages());
    EXPECT_EQ(ev->vectors(), vectors);
  }

  std::vector<UpsetTrial> batched(upsets.size());
  sliced->trials(upsets.data(), batched.data(), upsets.size());
  int struck = 0;
  int differing = 0;
  for (std::size_t i = 0; i < upsets.size(); ++i) {
    const LatchUpset& u = upsets[i];
    const UpsetTrial a = interp->trial(u);
    const UpsetTrial b = compiled->trial(u);
    const UpsetTrial& c = batched[i];
    const auto same = [&a](const UpsetTrial& t) {
      return a.struck == t.struck && a.corrupted == t.corrupted &&
             a.valid == t.valid && a.result == t.result &&
             a.flags == t.flags;
    };
    if (!same(b) || !same(c)) {
      if (++differing <= 4) {
        ADD_FAILURE() << unit.name() << " cycle " << u.cycle << " stage "
                      << u.stage << " lane " << u.lane << " bit " << u.bit
                      << ": interpreted result 0x" << std::hex << a.result
                      << ", compiled 0x" << b.result << ", bitsliced 0x"
                      << c.result << std::dec;
      }
    }
    struck += a.struck ? 1 : 0;
  }
  EXPECT_EQ(differing, 0) << unit.name() << ": of " << upsets.size()
                          << " upsets";
  return struck;
}

// The three evaluator backends answer every upset — occupied or bubble,
// single or batched — with identical UpsetTrial results.
TEST(Evaluator, BackendsAgreeTrialForTrial) {
  {
    // Every cycle of the horizon at a few bits of two lanes: occupied
    // latches and bubbles alike.
    units::UnitConfig cfg;
    cfg.stages = 5;
    const units::FpUnit unit(units::UnitKind::kAdder,
                             fp::FpFormat::binary32(), cfg);
    const CompileContract contract = unit_contract(unit, 8, 0x5eed);
    const long horizon = 8 + unit.latency() + 2;
    std::vector<LatchUpset> upsets;
    for (long cycle = 0; cycle < horizon; ++cycle) {
      for (int stage = 0; stage < unit.plan().stages(); ++stage) {
        for (const int bit : {0, 7, 22, 31, 63}) {
          upsets.push_back({cycle, stage, units::detail::kLaneResult, bit});
          upsets.push_back({cycle, stage, 3, bit});
        }
      }
    }
    const int struck = expect_backends_agree(unit, contract, upsets);
    // The sweep genuinely covered both occupied latches and bubbles.
    EXPECT_GT(struck, 0);
    EXPECT_LT(struck, static_cast<int>(upsets.size()));
  }
  {
    // Every occupied (vector, stage, lane, bit) of the MAC at its
    // optimal binary64 depth: faulty states take branches no clean
    // stimulus does, so no sampled check can stand in for this sweep.
    units::UnitConfig cfg;
    cfg.stages = 11;
    const units::FpUnit unit(units::UnitKind::kMac, fp::FpFormat::binary64(),
                             cfg);
    ASSERT_EQ(unit.stages(), 11);
    constexpr int kVectors = 8;
    constexpr std::uint64_t kSeed = 0x9ccb;
    const CompileContract contract = unit_contract(unit, kVectors, kSeed);
    const fault::LatchProfile profile =
        fault::profile_unit_latches(unit, kVectors, kSeed);
    std::vector<LatchUpset> upsets;
    for (int v = 0; v < kVectors; ++v) {
      for (int stage = 0; stage < profile.stages(); ++stage) {
        for (int lane = 0; lane < kMaxSignals; ++lane) {
          for (fp::u64 w = profile.occupied[static_cast<std::size_t>(stage)]
                                           [static_cast<std::size_t>(lane)];
               w != 0; w &= w - 1) {
            upsets.push_back({v + stage, stage, lane, std::countr_zero(w)});
          }
        }
      }
    }
    EXPECT_EQ(expect_backends_agree(unit, contract, upsets),
              static_cast<int>(upsets.size()));
  }
}

// fork() shares bound state and answers identically — the per-worker path
// the campaign grid uses.
TEST(Evaluator, ForksAnswerLikeTheOriginal) {
  units::UnitConfig cfg;
  cfg.stages = 6;
  const units::FpUnit unit(units::UnitKind::kMultiplier,
                           fp::FpFormat::binary64(), cfg);
  const CompileContract contract = unit_contract(unit, 8, 0x5eed);
  const long horizon = 8 + unit.latency() + 2;
  std::unique_ptr<Evaluator> sliced = make_evaluator(
      EvalBackend::kBitsliced, unit.pieces(), unit.plan(), contract);
  sliced->bind(contract.stimuli, horizon);
  const std::unique_ptr<Evaluator> forked = sliced->fork();
  EXPECT_EQ(forked->backend(), EvalBackend::kBitsliced);
  for (long cycle = 0; cycle < horizon; cycle += 3) {
    const LatchUpset u{cycle, 2, units::detail::kLaneResult, 17};
    const UpsetTrial a = sliced->trial(u);
    const UpsetTrial b = forked->trial(u);
    EXPECT_EQ(a.struck, b.struck);
    EXPECT_EQ(a.corrupted, b.corrupted);
    EXPECT_EQ(a.result, b.result);
  }
}

}  // namespace
}  // namespace flopsim::rtl
