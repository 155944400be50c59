// Pipeline planner: balanced partition, legality, timing and area models.
#include "rtl/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>

#include "units/converter_unit.hpp"
#include "units/fp_unit.hpp"

namespace flopsim::rtl {
namespace {

// The per-depth planner as it stood before the segment-delay table and the
// shared solve: every candidate segment re-summed by segment_delay, one DP
// per requested depth. Kept verbatim as the oracle plan_pipeline and
// plan_all_depths must reproduce cut for cut.
PipelinePlan reference_plan_pipeline(const PieceChain& chain, int stages) {
  const int n = static_cast<int>(chain.size());
  if (n == 0) throw std::invalid_argument("plan_pipeline: empty chain");
  stages = std::clamp(stages, 1, max_stages(chain));

  // Legal boundaries: boundary b (1..n-1) sits after piece b-1. Boundary 0
  // and n are the chain ends.
  std::vector<int> boundaries{0};
  for (int i = 0; i + 1 < n; ++i) {
    if (chain[i].cut_after) boundaries.push_back(i + 1);
  }
  boundaries.push_back(n);
  const int nb = static_cast<int>(boundaries.size());

  auto seg = [&](int bi, int bj) {  // delay of pieces between boundaries
    return segment_delay(chain, boundaries[bi], boundaries[bj]);
  };

  // dp[k][j]: min possible max-stage-delay splitting boundaries[0..j] into k
  // stages; choice[k][j]: the boundary index of the last cut.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> dp(
      stages + 1, std::vector<double>(nb, kInf));
  std::vector<std::vector<int>> choice(
      stages + 1, std::vector<int>(nb, -1));
  for (int j = 1; j < nb; ++j) dp[1][j] = seg(0, j);
  for (int k = 2; k <= stages; ++k) {
    for (int j = k; j < nb; ++j) {
      for (int m = k - 1; m < j; ++m) {
        const double cand = std::max(dp[k - 1][m], seg(m, j));
        if (cand < dp[k][j]) {
          dp[k][j] = cand;
          choice[k][j] = m;
        }
      }
    }
  }

  PipelinePlan plan;
  std::vector<int> rev;
  int j = nb - 1;
  for (int k = stages; k >= 2; --k) {
    j = choice[k][j];
    rev.push_back(boundaries[j]);
  }
  plan.stage_begin.push_back(0);
  for (auto it = rev.rbegin(); it != rev.rend(); ++it) {
    plan.stage_begin.push_back(*it);
  }
  plan.stage_begin.push_back(n);
  return plan;
}

// Every requested depth 0..max+1 (clamped at both ends) against the oracle,
// and every depth of the one-solve sweep against plan_pipeline.
void expect_planner_matches_reference(const PieceChain& chain,
                                      const std::string& what) {
  const int maxs = max_stages(chain);
  for (int s = 0; s <= maxs + 1; ++s) {
    ASSERT_EQ(plan_pipeline(chain, s).stage_begin,
              reference_plan_pipeline(chain, s).stage_begin)
        << what << " stages=" << s;
  }
  const std::vector<PipelinePlan> all = plan_all_depths(chain);
  ASSERT_EQ(static_cast<int>(all.size()), maxs) << what;
  for (int s = 1; s <= maxs; ++s) {
    ASSERT_EQ(all[static_cast<std::size_t>(s - 1)].stage_begin,
              plan_pipeline(chain, s).stage_begin)
        << what << " stages=" << s;
  }
}

Piece make_piece(const std::string& name, double delay, int slices,
                 int live_bits, bool cut_after = true) {
  Piece p;
  p.name = name;
  p.group = "test";
  p.delay_ns = delay;
  p.area.slices = slices;
  p.area.luts = slices * 2;
  p.live_bits = live_bits;
  p.cut_after = cut_after;
  p.eval = [](SignalSet& s) { s[0] += 1; };
  return p;
}

PieceChain uniform_chain(int n, double delay = 1.0) {
  PieceChain c;
  for (int i = 0; i < n; ++i) {
    c.push_back(make_piece("p" + std::to_string(i), delay, 10, 32));
  }
  return c;
}

TEST(Pipeline, MaxStagesCountsCuttableBoundaries) {
  EXPECT_EQ(max_stages(uniform_chain(1)), 1);
  EXPECT_EQ(max_stages(uniform_chain(5)), 5);
  PieceChain c = uniform_chain(5);
  c[1].cut_after = false;
  c[3].cut_after = false;
  EXPECT_EQ(max_stages(c), 3);
}

TEST(Pipeline, PlanClampsDepth) {
  const PieceChain c = uniform_chain(4);
  EXPECT_EQ(plan_pipeline(c, 0).stages(), 1);
  EXPECT_EQ(plan_pipeline(c, 1).stages(), 1);
  EXPECT_EQ(plan_pipeline(c, 4).stages(), 4);
  EXPECT_EQ(plan_pipeline(c, 99).stages(), 4);
}

TEST(Pipeline, PlanCoversChainExactly) {
  const PieceChain c = uniform_chain(7);
  for (int s = 1; s <= 7; ++s) {
    const PipelinePlan plan = plan_pipeline(c, s);
    ASSERT_EQ(plan.stages(), s);
    EXPECT_EQ(plan.stage_begin.front(), 0);
    EXPECT_EQ(plan.stage_begin.back(), 7);
    for (int i = 1; i < static_cast<int>(plan.stage_begin.size()); ++i) {
      EXPECT_GT(plan.stage_begin[i], plan.stage_begin[i - 1]);
    }
  }
}

TEST(Pipeline, PlanRespectsIllegalCuts) {
  PieceChain c = uniform_chain(6);
  c[0].cut_after = false;
  c[2].cut_after = false;
  c[4].cut_after = false;
  for (int s = 1; s <= max_stages(c); ++s) {
    const PipelinePlan plan = plan_pipeline(c, s);
    for (int i = 1; i < plan.stages(); ++i) {
      const int cut_after_piece = plan.stage_begin[i] - 1;
      EXPECT_TRUE(c[cut_after_piece].cut_after)
          << "illegal cut after piece " << cut_after_piece;
    }
  }
}

TEST(Pipeline, BalancedPartitionOfUnevenDelays) {
  PieceChain c;
  // Delays 5, 1, 1, 1, 5, 1: with 2 stages the best split is 7/7... the
  // optimum is max 8 (5+1+1+1 | 5+1) vs (5+1+1 | 1+5+1) = 7.
  for (double d : {5.0, 1.0, 1.0, 1.0, 5.0, 1.0}) {
    c.push_back(make_piece("p", d, 1, 8));
  }
  const device::TechModel tech = device::TechModel::virtex2pro7();
  const PipelinePlan plan = plan_pipeline(c, 2);
  const Timing t = evaluate_timing(c, plan, tech);
  EXPECT_DOUBLE_EQ(t.critical_ns, 7.0);
}

TEST(Pipeline, CriticalDelayNonIncreasingWithDepth) {
  PieceChain c;
  for (double d : {3.0, 1.5, 2.0, 4.0, 0.5, 1.0, 2.5, 3.5}) {
    c.push_back(make_piece("p", d, 5, 16));
  }
  const device::TechModel tech = device::TechModel::virtex2pro7();
  double prev = 1e9;
  for (int s = 1; s <= max_stages(c); ++s) {
    const Timing t = evaluate_timing(c, plan_pipeline(c, s), tech);
    EXPECT_LE(t.critical_ns, prev) << "stages=" << s;
    prev = t.critical_ns;
  }
}

TEST(Pipeline, SingleStageDelayIsChainSum) {
  const PieceChain c = uniform_chain(5, 2.0);
  const device::TechModel tech = device::TechModel::virtex2pro7();
  const Timing t = evaluate_timing(c, plan_pipeline(c, 1), tech);
  EXPECT_DOUBLE_EQ(t.critical_ns, 10.0);
  EXPECT_DOUBLE_EQ(t.period_ns, 10.0 + tech.register_overhead_ns());
  EXPECT_NEAR(t.freq_mhz, 1000.0 / t.period_ns, 1e-9);
}

TEST(Pipeline, MaxDepthDelayIsWorstPiece) {
  PieceChain c;
  for (double d : {1.0, 4.5, 2.0}) c.push_back(make_piece("p", d, 5, 16));
  const device::TechModel tech = device::TechModel::virtex2pro7();
  const Timing t = evaluate_timing(c, plan_pipeline(c, 3), tech);
  EXPECT_DOUBLE_EQ(t.critical_ns, 4.5);
  EXPECT_EQ(t.critical_stage, 1);
}

TEST(Pipeline, AreaGrowsWithDepth) {
  const PieceChain c = uniform_chain(10);
  const device::TechModel tech = device::TechModel::virtex2pro7();
  int prev_ffs = -1;
  int prev_slices = -1;
  for (int s = 1; s <= 10; ++s) {
    const AreaBreakdown a =
        evaluate_area(c, plan_pipeline(c, s), tech, device::Objective::kArea);
    EXPECT_GT(a.pipeline_ffs, prev_ffs) << "stages=" << s;
    EXPECT_GE(a.total.slices, prev_slices) << "stages=" << s;
    prev_ffs = a.pipeline_ffs;
    prev_slices = a.total.slices;
    EXPECT_EQ(a.logic.slices, 100);  // logic area is depth-independent
  }
}

TEST(Pipeline, FfAbsorptionDelaysSliceGrowth) {
  // A chain with generous logic slices absorbs shallow pipelining for free.
  const PieceChain c = uniform_chain(10);
  const device::TechModel tech = device::TechModel::virtex2pro7();
  const AreaBreakdown a1 =
      evaluate_area(c, plan_pipeline(c, 1), tech, device::Objective::kArea);
  const AreaBreakdown a2 =
      evaluate_area(c, plan_pipeline(c, 2), tech, device::Objective::kArea);
  // Depth 2 adds one 32-bit latch: 100 slices * 2 FF * 0.55 = 110-FF capacity
  // absorbs it; slices must not move.
  EXPECT_EQ(a1.total.slices, a2.total.slices);
  EXPECT_GT(a2.absorbed_ffs, 0);
}

TEST(Pipeline, SpeedObjectiveInflatesArea) {
  const PieceChain c = uniform_chain(6);
  const device::TechModel tech = device::TechModel::virtex2pro7();
  const auto plan = plan_pipeline(c, 3);
  const AreaBreakdown area_obj =
      evaluate_area(c, plan, tech, device::Objective::kArea);
  const AreaBreakdown speed_obj =
      evaluate_area(c, plan, tech, device::Objective::kSpeed);
  EXPECT_GT(speed_obj.total.slices, area_obj.total.slices);
}

TEST(Pipeline, EmptyChainThrows) {
  EXPECT_THROW(plan_pipeline(PieceChain{}, 1), std::invalid_argument);
}

TEST(Pipeline, EvaluateChainRunsAllPieces) {
  const PieceChain c = uniform_chain(5);
  SignalSet s;
  s.valid = true;
  evaluate_chain(c, s);
  EXPECT_EQ(s[0], 5u);
}

TEST(Pipeline, ChainLogicAreaSums) {
  const PieceChain c = uniform_chain(4);
  EXPECT_EQ(chain_logic_area(c).slices, 40);
  EXPECT_EQ(chain_logic_area(c).luts, 80);
}

TEST(PlannerOracle, UnitChainsMatchTheReferenceAtEveryDepth) {
  const units::UnitKind kinds[] = {
      units::UnitKind::kAdder, units::UnitKind::kMultiplier,
      units::UnitKind::kDivider, units::UnitKind::kSqrt,
      units::UnitKind::kMac};
  const fp::FpFormat fmts[] = {fp::FpFormat::binary32(),
                               fp::FpFormat::binary48(),
                               fp::FpFormat::binary64()};
  int chains = 0;
  for (const units::UnitKind kind : kinds) {
    for (const fp::FpFormat& fmt : fmts) {
      // default, ieee, fabric, speed objective: the lint zoos' configs.
      for (int variant = 0; variant < 4; ++variant) {
        units::UnitConfig cfg;
        cfg.ieee_mode = variant == 1;
        cfg.use_embedded_multipliers = variant != 2;
        if (variant == 3) cfg.objective = device::Objective::kSpeed;
        std::optional<units::FpUnit> unit;
        try {
          unit.emplace(kind, fmt, cfg);
        } catch (const std::invalid_argument&) {
          continue;  // a configuration this kind does not offer
        }
        expect_planner_matches_reference(
            unit->pieces(), std::string(units::to_string(kind)) + " " +
                                fmt.name() + " variant " +
                                std::to_string(variant));
        ++chains;
      }
    }
  }
  EXPECT_EQ(chains, 60);
  for (const fp::FpFormat& src : fmts) {
    for (const fp::FpFormat& dst : fmts) {
      if (src.total_bits() == dst.total_bits()) continue;
      const units::FormatConverter cvt(src, dst, units::UnitConfig{});
      expect_planner_matches_reference(
          cvt.pieces(), "cvt " + src.name() + " -> " + dst.name());
    }
  }
}

// Seeded random chains built to stress the DP's tie-break: delays from a
// four-value set (so many segments tie), runs of repeated groups with and
// without chained delays, and boundaries that may not be cut. Strict <
// keeps the first minimum; a planner that picked another optimum would
// agree on the critical delay but not on the cuts.
TEST(PlannerOracle, RandomChainsWithTiesMatchTheReference) {
  std::mt19937_64 rng(0x9e3779b97f4a7c15ull);
  const double delays[] = {0.5, 1.0, 1.0, 2.0};
  const double chained[] = {-1.0, 0.0, 0.25, 0.5};
  for (int trial = 0; trial < 400; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 40);
    PieceChain c;
    int group = 0;
    for (int i = 0; i < n; ++i) {
      if (rng() % 3 == 0) group = static_cast<int>(rng() % 3);
      const double delay = delays[rng() % 4];
      const bool cuttable = rng() % 4 != 0;
      Piece p = make_piece("p" + std::to_string(i), delay, 1, 8, cuttable);
      p.group = "g" + std::to_string(group);
      p.delay_chained_ns = chained[rng() % 4];
      c.push_back(std::move(p));
    }
    expect_planner_matches_reference(c, "random chain " +
                                            std::to_string(trial));
  }
}

TEST(PlannerOracle, AllDepthsOfEmptyChainThrows) {
  EXPECT_THROW(plan_all_depths(PieceChain{}), std::invalid_argument);
}

}  // namespace
}  // namespace flopsim::rtl
