// The upset-replay engine against an interpreted oracle: every upset —
// occupied or bubble, one at a time or batched — gets the UpsetTrial a
// full PipelineSim re-simulation with a one-shot latch flip gives, on real
// units and on a chain whose pieces clear the valid bit; what the
// `compiled` backend runs for a unit campaign (every piece after the
// strike, dead and constant ones included, behind the per-stage valid
// gate, on chains whose lint guard bits equal the def-use probe's); and
// the clean run a campaign's golden loop records equals the reference
// recorder's.
#include "rtl/evaluator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/pareto.hpp"
#include "analysis/seu.hpp"
#include "analysis/sweep.hpp"
#include "fault/campaign.hpp"
#include "lint/probe.hpp"
#include "rtl/simulator.hpp"
#include "units/fp_unit.hpp"

namespace flopsim::rtl {
namespace {

// The reference recorder: step a fresh PipelineSim over `inputs` for
// `horizon` cycles and record every stage-boundary state.
std::shared_ptr<const CleanRun> reference_clean_run(
    const PieceChain& chain, const PipelinePlan& plan,
    const std::vector<SignalSet>& inputs, long horizon) {
  auto run = std::make_shared<CleanRun>(inputs, horizon, plan.stages());
  PipelineSim sim(&chain, plan);
  for (long t = 0; t < horizon; ++t) {
    sim.step(t < run->vectors ? std::optional<SignalSet>(
                                    run->inputs[static_cast<std::size_t>(t)])
                              : std::nullopt);
    run->record(t, sim.latches());
  }
  return run;
}

// The oracle: every trial re-steps a PipelineSim over the whole horizon
// with a one-shot latch flip, comparing the output register against the
// clean run cycle by cycle.
class InterpretedOracle {
 public:
  InterpretedOracle(const PieceChain& chain, const PipelinePlan& plan,
                    int result_lane, std::shared_ptr<const CleanRun> run)
      : plan_(plan),
        result_lane_(result_lane),
        run_(std::move(run)),
        sim_(&chain, plan) {}

  UpsetTrial trial(const LatchUpset& u) {
    UpsetTrial t;
    const CleanRun& b = *run_;
    const int s_count = plan_.stages();
    const long v = u.cycle - u.stage;
    const bool struck =
        u.stage >= 0 && u.stage < s_count && v >= 0 && v < b.vectors &&
        u.lane >= 0 && u.lane < kMaxSignals;
    FlipObserver obs;
    obs.u = u;
    sim_.reset();
    sim_.set_latch_observer(&obs);
    const auto rl = static_cast<std::size_t>(result_lane_);
    for (long c = 0; c < b.horizon; ++c) {
      sim_.step(c < b.vectors ? std::optional<SignalSet>(
                                    b.inputs[static_cast<std::size_t>(c)])
                              : std::nullopt);
      const SignalSet& out = sim_.output();
      const long ov = c - (s_count - 1);
      const SignalSet* clean = (ov >= 0 && ov < b.vectors)
                                   ? &b.state(static_cast<int>(ov), s_count - 1)
                                   : nullptr;
      const bool clean_valid = clean != nullptr && clean->valid;
      if (out.valid != clean_valid) {
        t.corrupted = true;
      } else if (out.valid && (out.lane[rl] != clean->lane[rl] ||
                               out.flags != clean->flags)) {
        t.corrupted = true;
      }
      if (struck && c == v + s_count - 1) {
        t.valid = out.valid;
        t.result = out.lane[rl];
        t.flags = out.flags;
      }
    }
    sim_.set_latch_observer(nullptr);
    if (!struck) return UpsetTrial{};  // bubble strike: provably benign
    t.struck = true;
    return t;
  }

 private:
  /// One-shot latch flip, applied unconditionally at the matching edge —
  /// the same contract as the fault injector (bubbles get flipped too;
  /// they just never reach a valid output).
  struct FlipObserver final : LatchObserver {
    LatchUpset u;
    void on_latch(long cycle, int stage, SignalSet& latch) override {
      if (cycle == u.cycle && stage == u.stage && u.lane >= 0 &&
          u.lane < kMaxSignals) {
        latch.lane[static_cast<std::size_t>(u.lane)] ^=
            fp::u64{1} << (u.bit & 63);
      }
    }
  };

  PipelinePlan plan_;
  int result_lane_;
  std::shared_ptr<const CleanRun> run_;
  PipelineSim sim_;
};

std::vector<SignalSet> packed_workload(const units::FpUnit& unit,
                                       int vectors, std::uint64_t seed) {
  std::vector<SignalSet> packed;
  for (const units::UnitInput& in : fault::campaign_workload(
           unit.kind(), unit.format(), vectors, seed)) {
    packed.push_back(units::FpUnit::pack(in));
  }
  return packed;
}

// Drive `upsets` through the engine, one upset per call and all in one
// batched call, and through the oracle, and compare every UpsetTrial
// field. Returns how many upsets struck an occupied latch.
int expect_engine_matches_oracle(const std::string& name,
                                 const PieceChain& chain,
                                 const PipelinePlan& plan, int result_lane,
                                 const std::vector<SignalSet>& inputs,
                                 long horizon,
                                 const std::vector<LatchUpset>& upsets) {
  const std::shared_ptr<const CleanRun> run =
      reference_clean_run(chain, plan, inputs, horizon);
  InterpretedOracle oracle(chain, plan, result_lane, run);
  Evaluator engine(chain, plan, result_lane, run);

  std::vector<UpsetTrial> batched(upsets.size());
  engine.trials(upsets.data(), batched.data(), upsets.size());
  int struck = 0;
  int differing = 0;
  for (std::size_t i = 0; i < upsets.size(); ++i) {
    const LatchUpset& u = upsets[i];
    const UpsetTrial a = oracle.trial(u);
    UpsetTrial b;
    engine.trials(&u, &b, 1);
    const UpsetTrial& c = batched[i];
    const auto same = [&a](const UpsetTrial& t) {
      return a.struck == t.struck && a.corrupted == t.corrupted &&
             a.valid == t.valid && a.result == t.result &&
             a.flags == t.flags;
    };
    if (!same(b) || !same(c)) {
      if (++differing <= 4) {
        ADD_FAILURE() << name << " cycle " << u.cycle << " stage "
                      << u.stage << " lane " << u.lane << " bit " << u.bit
                      << ": oracle result 0x" << std::hex << a.result
                      << " valid " << a.valid << ", one-upset 0x" << b.result
                      << " valid " << b.valid << ", batched 0x" << c.result
                      << " valid " << c.valid << std::dec;
      }
    }
    struck += a.struck ? 1 : 0;
  }
  EXPECT_EQ(differing, 0) << name << ": of " << upsets.size() << " upsets";
  return struck;
}

Piece piece(const char* name, std::function<void(SignalSet&)> eval) {
  Piece p;
  p.name = name;
  p.group = "test";
  p.delay_ns = 1.0;
  p.live_bits = 16;
  p.eval = std::move(eval);
  return p;
}

// The engine (the compiled and bitsliced backends) answers every upset
// exactly as the interpreted oracle does.
TEST(Evaluator, BackendsAgreeTrialForTrial) {
  {
    // Every cycle of the horizon at a few bits of two lanes: occupied
    // latches and bubbles alike.
    units::UnitConfig cfg;
    cfg.stages = 5;
    const units::FpUnit unit(units::UnitKind::kAdder,
                             fp::FpFormat::binary32(), cfg);
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
    const int struck = expect_engine_matches_oracle(
        unit.name(), unit.pieces(), unit.plan(), units::detail::kLaneResult,
        packed_workload(unit, 8, 0x5eed), horizon, upsets);
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
    EXPECT_EQ(expect_engine_matches_oracle(
                  unit.name(), unit.pieces(), unit.plan(),
                  units::detail::kLaneResult,
                  packed_workload(unit, kVectors, kSeed),
                  kVectors + unit.latency() + 2, upsets),
              static_cast<int>(upsets.size()));
  }
  {
    // A chain whose middle stage drops the valid bit when a flip sets bit
    // 8 of lane 1 (clean operands never do): the dropped bundle must flow
    // through the last stage unevaluated, as in PipelineSim::step.
    PieceChain chain;
    chain.push_back(piece("inc", [](SignalSet& s) { s[1] = s[0] + 1; }));
    chain.push_back(piece("gate", [](SignalSet& s) {
      if ((s[1] & 0x100) != 0) s.valid = false;
    }));
    chain.push_back(piece("triple", [](SignalSet& s) {
      s[2] = s[1] * 3;
      s.flags = static_cast<std::uint8_t>(s[1] & 3);
    }));
    PipelinePlan plan;
    plan.stage_begin = {0, 1, 2, 3};
    std::vector<SignalSet> inputs;
    for (fp::u64 a = 0; a < 8; ++a) {
      SignalSet s;
      s[0] = a * 17;
      s.valid = true;
      inputs.push_back(s);
    }
    const long horizon = 8 + plan.stages() + 2;
    std::vector<LatchUpset> upsets;
    for (long cycle = 0; cycle < horizon; ++cycle) {
      for (int stage = 0; stage < plan.stages(); ++stage) {
        for (int lane = 0; lane < 3; ++lane) {
          for (const int bit : {0, 1, 8, 63}) {
            upsets.push_back({cycle, stage, lane, bit});
          }
        }
      }
    }
    const int struck = expect_engine_matches_oracle(
        "valid-gate chain", chain, plan, 2, inputs, horizon, upsets);
    EXPECT_GT(struck, 0);
    EXPECT_LT(struck, static_cast<int>(upsets.size()));
  }
}

// CompiledProgram: what the `compiled` backend runs for a unit campaign —
// the engine above, on chains the lint guard walk clears.

std::vector<SignalSet> operand_stream(std::initializer_list<fp::u64> as) {
  std::vector<SignalSet> inputs;
  for (const fp::u64 a : as) {
    SignalSet s;
    s[0] = a;
    s.valid = true;
    inputs.push_back(s);
  }
  return inputs;
}

// Stage 0 derives lane 1 from the operand, stage 1 is a constant piece,
// stage 2 a result piece reading both and a piece whose write nothing
// reads. The engine replays every one of them after the struck stage.
TEST(CompiledProgram, KeepsDeadAndConstantPieces) {
  PieceChain chain;
  chain.push_back(piece("seed", [](SignalSet& s) { s[1] = s[0] + 1; }));
  chain.push_back(piece("konst", [](SignalSet& s) { s[3] = 42; }));
  chain.push_back(piece("use", [](SignalSet& s) { s[4] = s[1] + s[3]; }));
  chain.push_back(piece("dead", [](SignalSet& s) { s[2] = s[1] * 5; }));
  PipelinePlan plan;
  plan.stage_begin = {0, 1, 2, 4};
  const std::vector<SignalSet> inputs =
      operand_stream({0, 3, 7, 0xDEADBEEF, 0x123456789});
  const long horizon = static_cast<long>(inputs.size()) + plan.stages() + 2;
  const std::shared_ptr<const CleanRun> run =
      reference_clean_run(chain, plan, inputs, horizon);
  Evaluator result(chain, plan, 4, run);
  Evaluator unread(chain, plan, 2, run);

  for (int v = 0; v < static_cast<int>(inputs.size()); ++v) {
    const fp::u64 a = inputs[static_cast<std::size_t>(v)][0];
    for (const int bit : {0, 9, 40, 63}) {
      const fp::u64 m = fp::u64{1} << bit;
      UpsetTrial t;
      // Lane 3 struck before the constant piece: its replay rewrites 42.
      const LatchUpset early{v, 0, 3, bit};
      result.trials(&early, &t, 1);
      EXPECT_TRUE(t.struck);
      EXPECT_FALSE(t.corrupted) << "a=" << a << " bit " << bit;
      EXPECT_EQ(t.result, a + 1 + 42);
      // Lane 3 struck after it: the result piece reads the flipped lane.
      const LatchUpset late{v + 1, 1, 3, bit};
      result.trials(&late, &t, 1);
      EXPECT_TRUE(t.corrupted) << "a=" << a << " bit " << bit;
      EXPECT_EQ(t.result, a + 1 + (42 ^ m));
      // Lane 1 struck: the unread lane carries the dead piece's replay.
      const LatchUpset feed{v + 1, 1, 1, bit};
      unread.trials(&feed, &t, 1);
      EXPECT_TRUE(t.corrupted) << "a=" << a << " bit " << bit;
      EXPECT_EQ(t.result, ((a + 1) ^ m) * 5);
    }
  }
}

// A bundle that enters invalid, or that a piece makes invalid, flows
// through the later stages with its lanes as latched: no piece runs on it.
TEST(CompiledProgram, InvalidBundlesFlowThroughUnevaluated) {
  PieceChain chain;
  chain.push_back(piece("inc", [](SignalSet& s) { s[1] = s[0] + 1; }));
  chain.push_back(piece("gate", [](SignalSet& s) {
    if ((s[1] & 0x100) != 0) s.valid = false;
  }));
  chain.push_back(piece("triple", [](SignalSet& s) {
    s[2] = s[1] * 3;
    s.flags = static_cast<std::uint8_t>((s[1] & 3) | 4);
  }));
  PipelinePlan plan;
  plan.stage_begin = {0, 1, 2, 3};
  std::vector<SignalSet> inputs = operand_stream({1, 17, 34, 51, 68});
  inputs[2].valid = false;  // a bubble among the operands
  const long horizon = static_cast<long>(inputs.size()) + plan.stages() + 2;
  const std::shared_ptr<const CleanRun> run =
      reference_clean_run(chain, plan, inputs, horizon);
  Evaluator tripled(chain, plan, 2, run);
  Evaluator carried(chain, plan, 1, run);

  for (int v = 0; v < static_cast<int>(inputs.size()); ++v) {
    const SignalSet& in = inputs[static_cast<std::size_t>(v)];
    const fp::u64 s1 = in.valid ? in[0] + 1 : 0;
    UpsetTrial t;
    // Bit 8 of lane 1 set before the gate: the gate drops the bundle and
    // the last stage leaves lane 2 and the flags as latched (zero).
    const LatchUpset dropped{v, 0, 1, 8};
    tripled.trials(&dropped, &t, 1);
    EXPECT_TRUE(t.struck);
    EXPECT_FALSE(t.valid) << "vector " << v;
    EXPECT_EQ(t.corrupted, in.valid) << "vector " << v;
    EXPECT_EQ(t.result, 0u) << "vector " << v;
    EXPECT_EQ(t.flags, 0) << "vector " << v;
    carried.trials(&dropped, &t, 1);
    EXPECT_EQ(t.result, s1 ^ 0x100) << "vector " << v;
    // The same flip after the gate: a valid bundle stays valid and the
    // last stage runs on it; the bubble still flows through untouched.
    const LatchUpset past_gate{v + 1, 1, 1, 8};
    tripled.trials(&past_gate, &t, 1);
    EXPECT_EQ(t.valid, in.valid) << "vector " << v;
    EXPECT_EQ(t.corrupted, in.valid) << "vector " << v;
    EXPECT_EQ(t.result, in.valid ? (s1 ^ 0x100) * 3 : 0) << "vector " << v;
  }
}

// The contract run_unit_campaign hands the guard walk.
lint::ChainContract campaign_contract(std::vector<SignalSet> stimuli) {
  lint::ChainContract contract;
  contract.input_lanes = {units::detail::kLaneInA, units::detail::kLaneInB,
                          units::detail::kLaneInCtl, units::detail::kLaneInC};
  contract.result_lane = units::detail::kLaneResult;
  contract.stimuli = std::move(stimuli);
  return contract;
}

// Real units: the guard walk clears both bits (the campaign takes the
// engine), the clean run's last stage is the chain on every stimulus,
// every lane included, and each upset's verdict is the rest of the chain
// replayed on the flipped state.
TEST(CompiledProgram, RealUnitsCompileCleanAndMatchTheChain) {
  constexpr int kVectors = 16;
  for (const units::UnitKind kind :
       {units::UnitKind::kAdder, units::UnitKind::kMultiplier}) {
    for (const fp::FpFormat fmt :
         {fp::FpFormat::binary32(), fp::FpFormat::binary64()}) {
      units::UnitConfig cfg;
      cfg.stages = kind == units::UnitKind::kAdder ? 5 : 6;
      units::FpUnit unit(kind, fmt, cfg);
      const PieceChain& chain = unit.pieces();
      const PipelinePlan& plan = unit.plan();
      const int stages = plan.stages();
      const fault::CleanUnitRun clean = fault::record_clean_unit_run(
          unit, fault::campaign_workload(kind, fmt, kVectors, 0x5eed),
          kVectors + unit.latency() + 2, true);
      ASSERT_NE(clean.clean, nullptr);
      const CleanRun& run = *clean.clean;

      const lint::ChainGuards guards = lint::infer_chain_guards(
          chain, campaign_contract(run.inputs), lint::Options{});
      EXPECT_FALSE(guards.writes_valid) << unit.name();
      EXPECT_FALSE(guards.nondeterministic) << unit.name();

      for (int v = 0; v < run.vectors; ++v) {
        SignalSet ref = run.inputs[static_cast<std::size_t>(v)];
        evaluate_chain(chain, ref);
        EXPECT_EQ(run.state(v, stages - 1), ref) << unit.name();
      }

      // The lowest and highest occupied bit of every occupied lane of
      // every stage, on every vector.
      std::vector<LatchUpset> upsets;
      for (int v = 0; v < run.vectors; ++v) {
        for (int s = 0; s < stages; ++s) {
          for (int lane = 0; lane < kMaxSignals; ++lane) {
            const fp::u64 w =
                clean.profile.occupied[static_cast<std::size_t>(s)]
                                      [static_cast<std::size_t>(lane)];
            if (w == 0) continue;
            upsets.push_back({v + s, s, lane, std::countr_zero(w)});
            upsets.push_back({v + s, s, lane, 63 - std::countl_zero(w)});
          }
        }
      }
      std::vector<UpsetTrial> got(upsets.size());
      Evaluator engine(chain, plan, units::detail::kLaneResult, clean.clean);
      engine.trials(upsets.data(), got.data(), upsets.size());

      const auto rl = static_cast<std::size_t>(units::detail::kLaneResult);
      int differing = 0;
      for (std::size_t i = 0; i < upsets.size(); ++i) {
        const LatchUpset& u = upsets[i];
        const int v = static_cast<int>(u.cycle) - u.stage;
        SignalSet ref = run.state(v, u.stage);
        ref.lane[static_cast<std::size_t>(u.lane)] ^= fp::u64{1} << u.bit;
        for (int s = u.stage + 1; s < stages && ref.valid; ++s) {
          for (int p = plan.stage_begin[static_cast<std::size_t>(s)];
               p < plan.stage_begin[static_cast<std::size_t>(s) + 1]; ++p) {
            chain[static_cast<std::size_t>(p)].eval(ref);
          }
        }
        const SignalSet& out = run.state(v, stages - 1);
        const bool corrupted =
            ref.valid != out.valid ||
            (ref.valid &&
             (ref.lane[rl] != out.lane[rl] || ref.flags != out.flags));
        const UpsetTrial& t = got[i];
        if (!(t.struck && t.valid == ref.valid && t.result == ref.lane[rl] &&
              t.flags == ref.flags && t.corrupted == corrupted) &&
            ++differing <= 4) {
          ADD_FAILURE() << unit.name() << " cycle " << u.cycle << " stage "
                        << u.stage << " lane " << u.lane << " bit " << u.bit
                        << ": engine 0x" << std::hex << t.result
                        << ", chain 0x" << ref.lane[rl] << std::dec;
        }
      }
      EXPECT_EQ(differing, 0) << unit.name() << ": of " << upsets.size();
      EXPECT_GT(upsets.size(), 0u) << unit.name();
    }
  }
}

// The guard walk the campaign runs before taking the engine reports
// exactly what the def-use probe reports, OR-ed over the chain, on every
// unit chain of the four lint zoos under the campaign's own contract; and
// both bits are clear, so every shipped unit's campaign takes the engine.
TEST(CompiledProgram, GuardBitsEqualTheProbesOnEveryZooChain) {
  units::UnitConfig ieee;
  ieee.ieee_mode = true;
  units::UnitConfig speed;
  speed.objective = device::Objective::kSpeed;
  units::UnitConfig fabric;
  fabric.use_embedded_multipliers = false;
  const analysis::SeuCampaignConfig camp;
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
        const lint::ChainContract contract = campaign_contract(
            packed_workload(*unit, camp.vectors, camp.seed));
        const lint::ChainAccess access = lint::infer_chain_access(
            unit->pieces(), contract, lint::Options{});
        bool writes_valid = false;
        bool nondeterministic = false;
        for (const lint::PieceAccess& pa : access.piece) {
          writes_valid = writes_valid || pa.writes_valid;
          nondeterministic = nondeterministic || pa.nondeterministic;
        }
        const lint::ChainGuards g = lint::infer_chain_guards(
            unit->pieces(), contract, lint::Options{});
        EXPECT_EQ(g.writes_valid, writes_valid) << unit->name();
        EXPECT_EQ(g.nondeterministic, nondeterministic) << unit->name();
        EXPECT_FALSE(g.writes_valid) << unit->name();
        EXPECT_FALSE(g.nondeterministic) << unit->name();
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 50);
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
        const std::shared_ptr<const CleanRun> ref = reference_clean_run(
            probe.pieces(), probe.plan(), packed, horizon);
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
