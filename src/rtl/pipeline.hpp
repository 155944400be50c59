// Pipeline planning and timing/area evaluation for a piece chain.
//
// Given a chain of N pieces and a requested depth S, the planner selects
// S-1 legal cut points minimizing the maximum per-stage combinational delay
// (the classic balanced chain partition, solved exactly by DP). This mirrors
// the paper's methodology — "identify the critical path... insert a new
// pipeline stage to break it down... repeat until diminishing returns" —
// but jumps straight to the optimal register placement for each depth.
//
// Over the B legal boundaries (B-1 = max_stages), a solve first fills one
// BxB table of segment delays, each summed as segment_delay sums it
// (O(B*N)), so the DP's inner step is a lookup; the DP to depth S then
// costs O(S*B^2). Its rows do not depend on the depth asked for, so
// plan_all_depths solves once to max_stages (O(B^3)) and backtracks every
// depth's plan from that one solve — the depth sweep behind Tables 1-2 and
// Figures 2-3 — where planning each depth on its own would cost O(B^4).
//
// Timing: achieved period = max stage delay + register overhead.
// Area: logic + pipeline/output registers, with FF absorption into the
// flip-flops already present in logic slices (the paper's "pipelining can
// exploit the unused flipflops... and cause only a moderate increase in
// area"), then PAR objective scaling.
#pragma once

#include <vector>

#include "device/tech.hpp"
#include "rtl/piece.hpp"

namespace flopsim::rtl {

struct PipelinePlan {
  /// Piece index ranges per stage: stage s covers pieces
  /// [stage_begin[s], stage_begin[s+1]). stage_begin.front() == 0,
  /// stage_begin.back() == pieces.size().
  std::vector<int> stage_begin;

  int stages() const { return static_cast<int>(stage_begin.size()) - 1; }
};

/// Evaluate stage `s` of `plan` on `bundle` in place: the pieces
/// chain[plan.stage_begin[s] .. stage_begin[s+1]), in chain order. The one
/// loop over a stage's pieces — PipelineSim::step and the upset-replay
/// engine (evaluator.hpp) both walk their stages through it, so the two
/// cannot drift apart. The caller applies the valid gate.
inline void run_stage(const PieceChain& chain, const PipelinePlan& plan,
                      int s, SignalSet& bundle) {
  const auto st = static_cast<std::size_t>(s);
  for (int i = plan.stage_begin[st]; i < plan.stage_begin[st + 1]; ++i) {
    chain[static_cast<std::size_t>(i)].eval(bundle);
  }
}

/// Maximum legal depth of a chain: one stage per cuttable boundary plus one.
int max_stages(const PieceChain& chain);

/// Combinational delay of pieces [begin, end) placed in one stage, honoring
/// same-group chaining discounts (carry chains crossing chunk boundaries).
double segment_delay(const PieceChain& chain, int begin, int end);

/// Plan a pipeline of exactly `stages` stages (clamped to [1, max_stages]).
PipelinePlan plan_pipeline(const PieceChain& chain, int stages);

/// Every depth's plan from one solve: element s-1 equals
/// plan_pipeline(chain, s) for s in [1, max_stages(chain)].
std::vector<PipelinePlan> plan_all_depths(const PieceChain& chain);

struct Timing {
  double critical_ns = 0.0;  ///< worst stage combinational delay
  double period_ns = 0.0;    ///< critical + register overhead
  double freq_mhz = 0.0;
  int critical_stage = 0;
};

Timing evaluate_timing(const PieceChain& chain, const PipelinePlan& plan,
                       const device::TechModel& tech);

struct AreaBreakdown {
  device::Resources logic;      ///< combinational pieces
  int pipeline_ffs = 0;         ///< FFs of internal cuts + output register
  int absorbed_ffs = 0;         ///< FFs packed into existing logic slices
  device::Resources total;      ///< post-packing, post-PAR-factor totals
};

AreaBreakdown evaluate_area(const PieceChain& chain, const PipelinePlan& plan,
                            const device::TechModel& tech,
                            device::Objective objective);

/// The paper's core metric: throughput per unit area (MHz/slice) of a
/// planned chain, 0 for a design without slices.
double freq_per_area(const Timing& timing, const AreaBreakdown& area);

}  // namespace flopsim::rtl
