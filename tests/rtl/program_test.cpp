// CompiledProgram and the Evaluator backends: the compiled program runs
// every piece of the chain in stage order, honours the per-stage valid
// gate, takes its guard bits from the lint guard walk exactly as the
// def-use probe reports them, and the interpreted / compiled / bitsliced
// evaluators answer every upset with identical results on real units,
// bound to a clean run the campaign's golden loop records exactly as the
// reference recorder does.
#include "rtl/program.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "analysis/pareto.hpp"
#include "analysis/seu.hpp"
#include "analysis/sweep.hpp"
#include "fault/campaign.hpp"
#include "lint/probe.hpp"
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

// The guard bits. The compiled program keeps only these two from the
// lint engine; the toy chains below make each one true on its own.
TEST(CompiledProgram, APieceThatClearsValidCompilesWithAltersValid) {
  PieceChain chain = three_way_chain();
  chain.push_back(piece("drop", [](SignalSet& s) {
    if ((s[1] & 1) != 0) s.valid = false;
  }));
  PipelinePlan plan;
  plan.stage_begin = {0, static_cast<int>(chain.size())};
  const CompiledProgram prog =
      compile_program(chain, plan, three_way_contract());
  EXPECT_TRUE(prog.stats().alters_valid);
  EXPECT_FALSE(prog.stats().nondeterministic);
}

TEST(CompiledProgram, AStatefulPieceCompilesNondeterministic) {
  PieceChain chain = three_way_chain();
  chain.push_back(piece("count", [n = fp::u64{0}](SignalSet& s) mutable {
    s[4] = s[1] + n++;
  }));
  PipelinePlan plan;
  plan.stage_begin = {0, static_cast<int>(chain.size())};
  const CompiledProgram prog =
      compile_program(chain, plan, three_way_contract());
  EXPECT_TRUE(prog.stats().nondeterministic);
  EXPECT_FALSE(prog.stats().alters_valid);
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

// Compile's guard walk reports exactly what the def-use probe reports,
// OR-ed over the chain, on every unit chain of the four lint zoos under
// the campaign's own contract.
TEST(CompiledProgram, GuardBitsEqualTheProbesOnEveryZooChain) {
  units::UnitConfig ieee;
  ieee.ieee_mode = true;
  units::UnitConfig speed;
  speed.objective = device::Objective::kSpeed;
  units::UnitConfig fabric;
  fabric.use_embedded_multipliers = false;
  int compared = 0;
  for (const units::UnitConfig& zoo :
       {units::UnitConfig{}, ieee, speed, fabric}) {
    for (const units::UnitKind kind :
         {units::UnitKind::kAdder, units::UnitKind::kMultiplier,
          units::UnitKind::kDivider, units::UnitKind::kSqrt,
          units::UnitKind::kMac}) {
      for (const fp::FpFormat& fmt : analysis::paper_formats()) {
        std::optional<units::FpUnit> unit;
        try {
          unit.emplace(kind, fmt, zoo);
        } catch (const std::invalid_argument&) {
          continue;  // a configuration this kind's builder rejects
        }
        const CompileContract contract =
            unit_contract(*unit, analysis::SeuCampaignConfig{}.vectors,
                          analysis::SeuCampaignConfig{}.seed);
        lint::ChainContract lc;
        lc.input_lanes = contract.input_lanes;
        lc.result_lane = contract.result_lane;
        lc.stimuli = contract.stimuli;
        const lint::ChainAccess access =
            lint::infer_chain_access(unit->pieces(), lc, lint::Options{});
        bool writes_valid = false;
        bool nondeterministic = false;
        for (const lint::PieceAccess& pa : access.piece) {
          writes_valid = writes_valid || pa.writes_valid;
          nondeterministic = nondeterministic || pa.nondeterministic;
        }
        const CompiledProgram prog =
            compile_program(unit->pieces(), unit->plan(), contract);
        EXPECT_EQ(prog.stats().alters_valid, writes_valid) << unit->name();
        EXPECT_EQ(prog.stats().nondeterministic, nondeterministic)
            << unit->name();
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 50);
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
  const std::shared_ptr<const CleanRun> run =
      bind_clean_states(unit.pieces(), unit.plan(), contract.stimuli, horizon);
  for (Evaluator* ev : {interp.get(), compiled.get(), sliced.get()}) {
    ev->bind(run);
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
  sliced->bind(
      bind_clean_states(unit.pieces(), unit.plan(), contract.stimuli, horizon));
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

// The campaign's one clean run records, for every unit kind at its
// paper min/opt/max depths, exactly the stage-boundary states the
// reference recorder records and exactly profile_unit_latches' profile.
TEST(CleanRun, CampaignLoopMatchesTheReferenceRecorder) {
  const analysis::SeuCampaignConfig camp;
  for (const units::UnitKind kind :
       {units::UnitKind::kAdder, units::UnitKind::kMultiplier,
        units::UnitKind::kDivider, units::UnitKind::kSqrt,
        units::UnitKind::kMac}) {
    for (const fp::FpFormat fmt :
         {fp::FpFormat::binary32(), fp::FpFormat::binary64()}) {
      const analysis::Selection sel =
          analysis::select_min_max_opt(analysis::sweep_unit(kind, fmt));
      for (const int depth :
           std::set<int>{sel.min.stages, sel.opt.stages, sel.max.stages}) {
        units::UnitConfig cfg;
        cfg.stages = depth;
        units::FpUnit probe(kind, fmt, cfg);
        const long horizon = camp.vectors + probe.latency() + 2;
        const std::vector<units::UnitInput> workload =
            fault::campaign_workload(kind, fmt, camp.vectors, camp.seed);
        const fault::CleanUnitRun run =
            fault::record_clean_unit_run(probe, workload, horizon, true);
        ASSERT_NE(run.clean, nullptr);

        std::vector<SignalSet> packed;
        for (const units::UnitInput& in : workload) {
          packed.push_back(units::FpUnit::pack(in));
        }
        const std::shared_ptr<const CleanRun> ref =
            bind_clean_states(probe.pieces(), probe.plan(), packed, horizon);
        EXPECT_EQ(run.clean->inputs, ref->inputs) << probe.name();
        EXPECT_EQ(run.clean->horizon, ref->horizon) << probe.name();
        ASSERT_EQ(run.clean->vectors, ref->vectors) << probe.name();
        ASSERT_EQ(run.clean->stages, ref->stages) << probe.name();
        int differing = 0;
        for (int v = 0; v < ref->vectors; ++v) {
          for (int s = 0; s < ref->stages; ++s) {
            if (run.clean->state(v, s) != ref->state(v, s) &&
                ++differing <= 4) {
              ADD_FAILURE() << probe.name() << " depth " << depth
                            << ": state (vector " << v << ", stage " << s
                            << ") differs from the reference recorder's";
            }
          }
        }
        EXPECT_EQ(differing, 0) << probe.name() << " depth " << depth;

        const fault::LatchProfile profile =
            fault::profile_unit_latches(probe, camp.vectors, camp.seed);
        EXPECT_EQ(run.profile.occupied, profile.occupied)
            << probe.name() << " depth " << depth;
        EXPECT_EQ(run.profile.total_bits(), profile.total_bits());
        EXPECT_EQ(run.golden.size(), static_cast<std::size_t>(horizon));
      }
    }
  }
}

}  // namespace
}  // namespace flopsim::rtl
