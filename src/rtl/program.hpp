// Compiled evaluation programs for piece chains.
//
// The interpreted simulator walks a PieceChain as a vector of named,
// costed std::function pieces — ideal for the timing/area analyses, but
// every Monte-Carlo trial pays the full tour: name lookups aside, each
// trial re-evaluates every piece of every stage at every cycle of the
// horizon. A CompiledProgram is the once-per-(unit kind, precision,
// depth) answer: the chain and plan are "compiled" into a flat op array
// (no virtual dispatch, one indirect call per piece, stage boundaries
// resolved once) that campaign evaluators replay millions of times.
//
// The program runs every piece, in the order PipelineSim::step runs them,
// behind the same per-stage valid gate. Nothing is pruned or folded, so a
// compiled suffix computes exactly what the interpreted pipeline computes,
// on clean and faulty states alike: no self-check or bind-time battery
// has to vouch for it.
//
// Compilation computes only the two guard bits in stats(): campaign fast
// paths that map a program's verdicts onto checker schemes refuse chains
// that write the DONE bit or behave nondeterministically. They come from
// the lint engine's guard walk (lint::infer_chain_guards in
// src/lint/probe.*): each piece's baseline eval and identical rerun over
// the contract's stimuli, from the def-use probe's poisoned entry state,
// without the probe's perturbation and width passes. The bits equal the
// probe's writes_valid / nondeterministic OR-ed over the chain.
//
// Borrow semantics: like PipelineSim, a CompiledProgram references the
// chain's eval functors — the chain must outlive the program.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "rtl/pipeline.hpp"
#include "rtl/signals.hpp"

namespace flopsim::rtl {

/// What the chain promises the compiler: which lanes arrive initialized,
/// which lane carries the result, and the stimulus bundles (packed
/// inputs, valid set) that drive the guard walk.
struct CompileContract {
  std::vector<int> input_lanes;
  int result_lane = 0;
  std::vector<SignalSet> stimuli;
};

/// The guard walk's verdict on behaviours a campaign fast path cannot
/// model.
struct CompileStats {
  bool alters_valid = false;      ///< some piece writes the DONE bit
  bool nondeterministic = false;  ///< some piece diverged on identical input
};

class CompiledProgram {
 public:
  /// Run stages [from_stage, to_stage), honoring the simulator's
  /// per-stage valid gate (an invalid bundle flows through a stage
  /// unevaluated, exactly like PipelineSim::step).
  void run(SignalSet& s, int from_stage, int to_stage) const {
    for (int st = from_stage; st < to_stage; ++st) {
      if (!s.valid) continue;
      for (int i = op_begin_[static_cast<std::size_t>(st)];
           i < op_begin_[static_cast<std::size_t>(st) + 1]; ++i) {
        (*ops_[static_cast<std::size_t>(i)])(s);
      }
    }
  }

  /// Op-major batch execution — the bit-sliced fast path. For each stage
  /// st, every op of the stage is fetched once and applied to every slot
  /// k (bit k of `mask` set) with entry_stage[k] <= st and a valid bundle
  /// at the stage boundary, so one pass through the op array serves up to
  /// 64 trials.
  void run_block(SignalSet* slots, const int* entry_stage,
                 std::uint64_t mask) const;

  int stages() const { return static_cast<int>(op_begin_.size()) - 1; }
  const CompileStats& stats() const { return stats_; }

 private:
  friend CompiledProgram compile_program(const PieceChain&,
                                         const PipelinePlan&,
                                         const CompileContract&);

  /// One op per chain piece, in chain order: an indirect call into the
  /// piece's eval.
  std::vector<const std::function<void(SignalSet&)>*> ops_;
  std::vector<int> op_begin_;  // per stage into ops_, size stages + 1
  CompileStats stats_;
};

/// Compile `chain` + `plan` under `contract`. The chain is borrowed: it
/// must outlive the returned program (FpUnit keeps its chain at a stable
/// address for exactly this kind of use).
CompiledProgram compile_program(const PieceChain& chain,
                                const PipelinePlan& plan,
                                const CompileContract& contract);

}  // namespace flopsim::rtl
