// Abstract-interpretation dataflow engine over piece chains.
//
// The DL2xx rules cross-check declared live_bits by SAMPLING: stimulus
// vectors through the instrumented probe give a lower bound on each
// boundary's live width, cushioned by a tolerance knob. This engine is
// the other half of the sandwich — a sound static UPPER bound:
//
//   probe lower bound  <=  true live width  <=  absint upper bound
//
// computed by forward abstract interpretation of each piece's declared
// SemOp program (rtl/semops.hpp) under a product domain
//
//   known-bits (mask of decided bits + their values)
//     x  signed interval [lo, hi]
//
// with per-op transfer functions (add/sub with carry-out reachability,
// mul partial-product width, shifts with jamming, mask/mux join,
// compare), a widening worklist fixpoint (chains are straight-line, but
// the solver accepts arbitrary node graphs so termination is honestly
// testable), and a backward demanded-bits pass that masks each boundary
// down to the bits downstream pieces can actually observe.
//
// Soundness is conditional on the annotations over-approximating the
// evals, and that condition is checked, not assumed: every stimulus is
// replayed concretely and every defined lane value is verified to lie
// inside the abstract state (rule DL400 fires on any escape). When the
// probe's witness width meets the static bound the sandwich collapses —
// the boundary's live width is known EXACTLY, the DL201 tolerance is
// dropped, and an under-declaration becomes the provable error DL401.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "lint/lint.hpp"
#include "rtl/piece.hpp"
#include "rtl/signals.hpp"

namespace flopsim::lint {

/// One abstract lane value: known-bits x signed interval. `defined`
/// distinguishes "never written" from "written, value unknown".
struct AbsVal {
  fp::u64 kmask = 0;  ///< bits whose value is decided
  fp::u64 kval = 0;   ///< their values (kval & ~kmask == 0 invariant)
  fp::i64 lo = INT64_MIN;
  fp::i64 hi = INT64_MAX;
  bool defined = false;

  static AbsVal constant(fp::u64 v);
  static AbsVal any(int width);         ///< unsigned values of <= width bits
  static AbsVal any_signed(int width);  ///< two's-complement width bits

  bool is_constant() const { return defined && kmask == ~fp::u64{0}; }
  fp::u64 constant_value() const { return kval; }
  /// The value `v` is inside this abstract value.
  bool contains(fp::u64 v) const;
  /// Bits that can possibly be 1 in some contained value.
  fp::u64 possible_bits() const;
  /// Sound upper bound on lint::effective_width over contained values.
  int width_bound() const;
  /// Tighten each component by the other (interval from known bits and
  /// known top bits from the interval).
  void canonicalize();

  bool operator==(const AbsVal& o) const {
    return kmask == o.kmask && kval == o.kval && lo == o.lo && hi == o.hi &&
           defined == o.defined;
  }
};

/// Least upper bound and (interval-threshold + known-bits-agreement)
/// widening. Exposed for the domain unit tests.
AbsVal absval_join(const AbsVal& a, const AbsVal& b);
AbsVal absval_widen(const AbsVal& prev, const AbsVal& next);

/// Abstract machine state over the lane file.
struct AbsState {
  std::array<AbsVal, rtl::kMaxSignals> lane;
  bool reachable = false;
};

AbsState absstate_join(const AbsState& a, const AbsState& b);

/// Apply one SemOp to a state (exposed for transfer-function tests).
void absint_transfer(const rtl::SemOp& op, AbsState& state);

/// A generic node graph for the fixpoint solver: each node is a
/// straight-line SemOp block with successor edges. Piece chains compile
/// to a linear graph; the loop tests build back edges.
struct AbsProgram {
  struct Node {
    rtl::SemProgram ops;
    std::vector<int> succ;
  };
  std::vector<Node> nodes;
  int entry = 0;
};

struct SolveResult {
  std::vector<AbsState> in;   ///< fixpoint state at node entry
  std::vector<AbsState> out;  ///< state after the node's ops
  int iterations = 0;         ///< worklist pops until stabilization
};

/// Worklist fixpoint with widening after `widen_after` joins at a node.
SolveResult absint_solve(const AbsProgram& program, const AbsState& entry,
                         int widen_after = 4);

/// Per-lane facts at one cut boundary.
struct LaneBound {
  int lane = -1;
  fp::u64 demand = 0;  ///< bits downstream pieces can observe
  int upper = 0;       ///< proven width bound (demand-masked)
  int lower = 0;       ///< widest demand-masked value a stimulus produced
  bool constant = false;
  fp::u64 constant_value = 0;
};

struct BoundaryBounds {
  int boundary = -1;  ///< register after piece `boundary`
  bool final_boundary = false;
  int upper = 0;  ///< sum of per-lane proven widths
  int lower = 0;  ///< sum of per-lane concrete witness widths
  std::vector<LaneBound> lanes;
  /// The sandwich collapsed: the boundary's live width is known exactly.
  bool exact() const { return lower == upper; }
};

/// Everything the engine proved about one chain.
struct ChainAbsint {
  /// Every piece carried a SemOp annotation; false disables all
  /// absint-derived rules for the chain (probe-only linting applies).
  bool annotated = false;
  /// One entry per cuttable boundary (plus the final output register),
  /// indexed by position in this vector; `boundary` names the piece.
  std::vector<BoundaryBounds> boundaries;
  /// Per piece, index-aligned with the chain: every semantic op is
  /// provably disabled by its guard.
  std::vector<bool> piece_unreachable;
  /// DL400 containment violations, DL404 unreachable ops, DL405 carry
  /// truncation — findings the analysis itself produces.
  Report findings;
  int containment_checks = 0;  ///< concrete values verified against the state
};

/// Run the full analysis: forward fixpoint, backward demanded bits,
/// concrete-replay containment, boundary summaries.
ChainAbsint analyze_chain(const rtl::PieceChain& chain,
                          const ChainContract& contract, const Options& opts);

}  // namespace flopsim::lint
