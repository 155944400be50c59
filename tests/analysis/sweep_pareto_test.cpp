// Sweep generation and min/max/opt + Pareto selection.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "analysis/pareto.hpp"
#include "analysis/sweep.hpp"
#include "power/unit_power.hpp"

namespace flopsim::analysis {
namespace {

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// sweep_unit plans every depth from one solve over its probe's chain; each
// point must equal, bit for bit, what a unit built at that depth reports.
TEST(Sweep, PointsEqualPerDepthUnitsBitForBit) {
  const units::UnitKind kinds[] = {
      units::UnitKind::kAdder, units::UnitKind::kMultiplier,
      units::UnitKind::kDivider, units::UnitKind::kSqrt,
      units::UnitKind::kMac};
  const device::TechModel techs[] = {device::TechModel::virtex2pro7(),
                                     device::TechModel::virtex2pro5()};
  for (const units::UnitKind kind : kinds) {
    for (const fp::FpFormat& fmt : paper_formats()) {
      for (const device::Objective obj :
           {device::Objective::kArea, device::Objective::kSpeed}) {
        for (const device::TechModel& tech : techs) {
          const SweepResult sw = sweep_unit(kind, fmt, obj, tech, 2);
          units::UnitConfig cfg;
          cfg.objective = obj;
          cfg.tech = tech;
          ASSERT_EQ(static_cast<int>(sw.points.size()),
                    units::FpUnit(kind, fmt, cfg).max_stages());
          for (const DesignPoint& p : sw.points) {
            cfg.stages = p.stages;
            const units::FpUnit unit(kind, fmt, cfg);
            const std::string where = unit.name() + " " +
                                      device::to_string(obj) +
                                      (&tech == techs ? " -7" : " -5");
            const rtl::Timing t = unit.timing();
            const rtl::AreaBreakdown a = unit.area();
            EXPECT_EQ(p.stages, unit.stages()) << where;
            EXPECT_EQ(bits(p.freq_mhz), bits(t.freq_mhz)) << where;
            EXPECT_EQ(bits(p.critical_ns), bits(t.critical_ns)) << where;
            EXPECT_EQ(p.area, a.total) << where;
            EXPECT_EQ(p.pipeline_ffs, a.pipeline_ffs) << where;
            EXPECT_EQ(bits(p.freq_per_area), bits(unit.freq_per_area()))
                << where;
            EXPECT_EQ(bits(p.power_mw_100),
                      bits(power::unit_power(unit, 100.0).total_mw()))
                << where;
          }
        }
      }
    }
  }
}

TEST(Sweep, CoversAllDepthsInOrder) {
  const SweepResult sw =
      sweep_unit(units::UnitKind::kAdder, fp::FpFormat::binary32());
  ASSERT_FALSE(sw.points.empty());
  for (std::size_t i = 0; i < sw.points.size(); ++i) {
    EXPECT_EQ(sw.points[i].stages, static_cast<int>(i) + 1);
  }
  units::UnitConfig cfg;
  const units::FpUnit probe(units::UnitKind::kAdder, fp::FpFormat::binary32(),
                            cfg);
  EXPECT_EQ(static_cast<int>(sw.points.size()), probe.max_stages());
}

TEST(Sweep, PointsAreInternallyConsistent) {
  const SweepResult sw =
      sweep_unit(units::UnitKind::kMultiplier, fp::FpFormat::binary64());
  for (const DesignPoint& p : sw.points) {
    EXPECT_NEAR(p.freq_mhz, 1000.0 / (p.critical_ns + 1.0), 1e-6);
    EXPECT_NEAR(p.freq_per_area, p.freq_mhz / p.area.slices, 1e-9);
    EXPECT_GT(p.power_mw_100, 0.0);
    EXPECT_GT(p.area.bmults, 0);
  }
}

TEST(Sweep, AtStagesLookup) {
  const SweepResult sw =
      sweep_unit(units::UnitKind::kAdder, fp::FpFormat::binary32());
  EXPECT_EQ(sw.at_stages(3).stages, 3);
  EXPECT_THROW(sw.at_stages(999), std::out_of_range);
}

TEST(Sweep, PaperFormatsAreTheThreePrecisions) {
  const auto fmts = paper_formats();
  ASSERT_EQ(fmts.size(), 3u);
  EXPECT_EQ(fmts[0].total_bits(), 32);
  EXPECT_EQ(fmts[1].total_bits(), 48);
  EXPECT_EQ(fmts[2].total_bits(), 64);
}

TEST(Pareto, SelectionIdentities) {
  const SweepResult sw =
      sweep_unit(units::UnitKind::kAdder, fp::FpFormat::binary48());
  const Selection sel = select_min_max_opt(sw);
  EXPECT_EQ(sel.min.stages, 1);
  EXPECT_EQ(sel.max.stages, static_cast<int>(sw.points.size()));
  for (const DesignPoint& p : sw.points) {
    EXPECT_LE(p.freq_per_area, sel.opt.freq_per_area);
  }
  // The optimum is interior: pipelined, but not maximally.
  EXPECT_GT(sel.opt.stages, 1);
  EXPECT_LT(sel.opt.stages, sel.max.stages);
}

TEST(Pareto, SelectionOnEmptySweepThrows) {
  EXPECT_THROW(select_min_max_opt(SweepResult{}), std::invalid_argument);
}

TEST(Pareto, FrontierIsNonDominatedAndMonotone) {
  const SweepResult sw =
      sweep_unit(units::UnitKind::kMultiplier, fp::FpFormat::binary32());
  const auto frontier = pareto_frontier(sw);
  ASSERT_FALSE(frontier.empty());
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    // Along the frontier, more area must buy more frequency.
    EXPECT_GT(frontier[i].freq_mhz, frontier[i - 1].freq_mhz);
    EXPECT_GT(frontier[i].area.slices, frontier[i - 1].area.slices);
  }
  // Every frontier point exists in the sweep.
  for (const DesignPoint& p : frontier) {
    EXPECT_EQ(sw.at_stages(p.stages).area.slices, p.area.slices);
  }
}

TEST(Pareto, SelectFastestPicksMaxFrequencySmallestArea) {
  const SweepResult sw =
      sweep_unit(units::UnitKind::kAdder, fp::FpFormat::binary32());
  const DesignPoint fast = select_fastest(sw);
  for (const DesignPoint& p : sw.points) {
    EXPECT_LE(p.freq_mhz, fast.freq_mhz);
    if (p.freq_mhz == fast.freq_mhz) {
      EXPECT_GE(p.area.slices, fast.area.slices);
    }
  }
  EXPECT_THROW(select_fastest(SweepResult{}), std::invalid_argument);
}

TEST(Pareto, MaxFrequencyPointIsOnFrontier) {
  const SweepResult sw =
      sweep_unit(units::UnitKind::kAdder, fp::FpFormat::binary64());
  const auto frontier = pareto_frontier(sw);
  double best = 0.0;
  for (const DesignPoint& p : sw.points) best = std::max(best, p.freq_mhz);
  EXPECT_DOUBLE_EQ(frontier.back().freq_mhz, best);
}

}  // namespace
}  // namespace flopsim::analysis
