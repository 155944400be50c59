#include "rtl/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace flopsim::rtl {

void evaluate_chain(const PieceChain& chain, SignalSet& s) {
  for (const Piece& p : chain) p.eval(s);
}

device::Resources chain_logic_area(const PieceChain& chain) {
  device::Resources r;
  for (const Piece& p : chain) r += p.area;
  return r;
}

int max_stages(const PieceChain& chain) {
  int cuts = 0;
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    if (chain[i].cut_after) ++cuts;
  }
  return cuts + 1;
}

namespace {

// The balanced chain partition, solved once for every depth up to `depth`.
// dp[k][j] (the least possible worst-stage delay splitting boundaries[0..j]
// into k stages) and choice[k][j] (the boundary index of the last cut) do
// not depend on the depth a caller asks for, so one solve backtracks the
// plan of every depth it covers.
class PartitionSolve {
 public:
  PartitionSolve(const PieceChain& chain, int depth) {
    const int n = static_cast<int>(chain.size());
    // Legal boundaries: boundary b (1..n-1) sits after piece b-1. Boundary
    // 0 and n are the chain ends.
    boundaries_.push_back(0);
    for (int i = 0; i + 1 < n; ++i) {
      if (chain[i].cut_after) boundaries_.push_back(i + 1);
    }
    boundaries_.push_back(n);
    nb_ = static_cast<int>(boundaries_.size());
    if (depth < 2) return;  // one stage spans the chain: nothing to solve

    // seg[bi * nb + bj]: delay of the pieces between boundaries bi < bj,
    // summed left to right from boundary bi exactly as segment_delay sums
    // it (the same doubles, in the same order). chained[i]: piece i takes
    // its chained delay when piece i-1 shares its stage.
    std::vector<char> chained(static_cast<std::size_t>(n), 0);
    for (int i = 1; i < n; ++i) {
      chained[i] = chain[i].delay_chained_ns >= 0 &&
                   chain[i - 1].group == chain[i].group;
    }
    std::vector<double> seg(static_cast<std::size_t>(nb_) * nb_, 0.0);
    for (int bi = 0; bi + 1 < nb_; ++bi) {
      const int begin = boundaries_[bi];
      double d = 0.0;
      int bj = bi + 1;
      for (int i = begin; i < n; ++i) {
        const Piece& p = chain[i];
        d += i > begin && chained[i] ? p.delay_chained_ns : p.delay_ns;
        if (i + 1 == boundaries_[bj]) seg[bi * nb_ + bj++] = d;
      }
    }

    // Two rolling rows of dp; every row of choice is kept for backtracking.
    // Strict < keeps the first (leftmost) minimum among tied cuts: the
    // tie-break every plan, and so every paper table, rests on.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> prev(static_cast<std::size_t>(nb_), kInf);
    std::vector<double> cur(static_cast<std::size_t>(nb_), kInf);
    for (int j = 1; j < nb_; ++j) prev[j] = seg[j];
    choice_.assign(static_cast<std::size_t>(depth + 1) * nb_, -1);
    for (int k = 2; k <= depth; ++k) {
      std::fill(cur.begin(), cur.end(), kInf);
      for (int j = k; j < nb_; ++j) {
        for (int m = k - 1; m < j; ++m) {
          const double cand = std::max(prev[m], seg[m * nb_ + j]);
          if (cand < cur[j]) {
            cur[j] = cand;
            choice_[k * nb_ + j] = m;
          }
        }
      }
      std::swap(prev, cur);
    }
  }

  /// The plan of exactly `stages` stages, 1 <= stages <= the solved depth.
  PipelinePlan plan(int stages) const {
    PipelinePlan plan;
    plan.stage_begin.assign(static_cast<std::size_t>(stages) + 1, 0);
    plan.stage_begin[stages] = boundaries_.back();
    int j = nb_ - 1;
    for (int k = stages; k >= 2; --k) {
      j = choice_[k * nb_ + j];
      plan.stage_begin[k - 1] = boundaries_[j];
    }
    return plan;
  }

 private:
  std::vector<int> boundaries_;
  int nb_ = 0;
  std::vector<int> choice_;  // (depth + 1) x nb, row-major
};

}  // namespace

PipelinePlan plan_pipeline(const PieceChain& chain, int stages) {
  if (chain.empty()) throw std::invalid_argument("plan_pipeline: empty chain");
  stages = std::clamp(stages, 1, max_stages(chain));
  return PartitionSolve(chain, stages).plan(stages);
}

std::vector<PipelinePlan> plan_all_depths(const PieceChain& chain) {
  if (chain.empty()) {
    throw std::invalid_argument("plan_all_depths: empty chain");
  }
  const int depth = max_stages(chain);
  const PartitionSolve solve(chain, depth);
  std::vector<PipelinePlan> plans;
  plans.reserve(static_cast<std::size_t>(depth));
  for (int s = 1; s <= depth; ++s) plans.push_back(solve.plan(s));
  return plans;
}

double segment_delay(const PieceChain& chain, int begin, int end) {
  double d = 0.0;
  for (int i = begin; i < end; ++i) {
    const Piece& p = chain[i];
    const bool chained = i > begin && p.delay_chained_ns >= 0 &&
                         chain[i - 1].group == p.group;
    d += chained ? p.delay_chained_ns : p.delay_ns;
  }
  return d;
}

Timing evaluate_timing(const PieceChain& chain, const PipelinePlan& plan,
                       const device::TechModel& tech) {
  Timing t;
  for (int s = 0; s < plan.stages(); ++s) {
    const double d =
        segment_delay(chain, plan.stage_begin[s], plan.stage_begin[s + 1]);
    if (d > t.critical_ns) {
      t.critical_ns = d;
      t.critical_stage = s;
    }
  }
  t.period_ns = t.critical_ns + tech.register_overhead_ns();
  t.freq_mhz = 1000.0 / t.period_ns;
  return t;
}

AreaBreakdown evaluate_area(const PieceChain& chain, const PipelinePlan& plan,
                            const device::TechModel& tech,
                            device::Objective objective) {
  AreaBreakdown a;
  a.logic = chain_logic_area(chain);

  // Register bits: one latch of the live width at each internal cut, plus
  // the always-present output register after the final piece, plus the
  // 1-bit DONE/valid shift register per stage.
  int ffs = 0;
  for (int s = 1; s < plan.stages(); ++s) {
    ffs += chain[plan.stage_begin[s] - 1].live_bits;
  }
  ffs += chain.back().live_bits;  // output register
  ffs += plan.stages();           // DONE shift register
  a.pipeline_ffs = ffs;

  // Absorb FFs into the flip-flops co-located with the logic slices.
  const int capacity = static_cast<int>(
      a.logic.slices * tech.ffs_per_slice() * tech.ff_absorption());
  a.absorbed_ffs = std::min(ffs, capacity);
  const int spill = ffs - a.absorbed_ffs;
  const int spill_slices =
      (spill + tech.ffs_per_slice() - 1) / tech.ffs_per_slice();

  a.total = a.logic;
  a.total.slices = static_cast<int>(
      std::ceil((a.logic.slices + spill_slices) * tech.par_area_factor(objective)));
  a.total.ffs = ffs;
  return a;
}

double freq_per_area(const Timing& timing, const AreaBreakdown& area) {
  return area.total.slices > 0 ? timing.freq_mhz / area.total.slices : 0.0;
}

}  // namespace flopsim::rtl
