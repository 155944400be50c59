// Timing/area model properties of the generated units — the behaviours the
// paper's Figure 2 analysis rests on.
#include <gtest/gtest.h>

#include "fp/value.hpp"
#include "units/fp_unit.hpp"

namespace flopsim::units {
namespace {

using fp::FpFormat;

FpUnit make(UnitKind kind, FpFormat fmt, int stages,
            device::Objective obj = device::Objective::kArea) {
  UnitConfig cfg;
  cfg.stages = stages;
  cfg.objective = obj;
  return FpUnit(kind, fmt, cfg);
}

struct KindFmt {
  UnitKind kind;
  FpFormat fmt;
  // Held inline, not as a pointer, and filling the case to its last
  // byte: gtest prints the case's raw bytes into each test name, and a
  // pointer or padding would make the names differ per process.
  char name[12];
};

class UnitModelTest : public ::testing::TestWithParam<KindFmt> {};

TEST_P(UnitModelTest, FrequencyNonDecreasingWithDepth) {
  const auto [kind, fmt, name] = GetParam();
  const int maxs = make(kind, fmt, 1).max_stages();
  double prev = 0.0;
  for (int s = 1; s <= maxs; ++s) {
    const double f = make(kind, fmt, s).freq_mhz();
    EXPECT_GE(f, prev - 1e-9) << "stages=" << s;
    prev = f;
  }
}

TEST_P(UnitModelTest, AreaNonDecreasingWithDepth) {
  const auto [kind, fmt, name] = GetParam();
  const int maxs = make(kind, fmt, 1).max_stages();
  int prev = 0;
  for (int s = 1; s <= maxs; ++s) {
    const int slices = make(kind, fmt, s).area().total.slices;
    EXPECT_GE(slices, prev) << "stages=" << s;
    prev = slices;
  }
}

TEST_P(UnitModelTest, DeepPipeliningShowsDiminishingReturns) {
  // The marginal frequency gain of the last doubling of depth must be well
  // below that of the first — the flattening of Figure 2.
  const auto [kind, fmt, name] = GetParam();
  const int maxs = make(kind, fmt, 1).max_stages();
  ASSERT_GE(maxs, 4);
  const double f1 = make(kind, fmt, 1).freq_mhz();
  const double f2 = make(kind, fmt, 2).freq_mhz();
  const double fh = make(kind, fmt, maxs / 2).freq_mhz();
  const double fm = make(kind, fmt, maxs).freq_mhz();
  // Doubling depth from 1 nearly doubles frequency; doubling from maxs/2
  // gains far less relative to where it starts.
  EXPECT_GT(f2 / f1, fm / fh);
}

TEST_P(UnitModelTest, FreqPerAreaPeaksAtInteriorDepth) {
  // Figure 2's qualitative shape: the best MHz/slice is neither the
  // unpipelined nor (for these units) the maximally pipelined design.
  const auto [kind, fmt, name] = GetParam();
  const int maxs = make(kind, fmt, 1).max_stages();
  int best_s = 1;
  double best = 0.0;
  for (int s = 1; s <= maxs; ++s) {
    const double m = make(kind, fmt, s).freq_per_area();
    if (m > best) {
      best = m;
      best_s = s;
    }
  }
  EXPECT_GT(best_s, 1) << "optimum should not be the unpipelined design";
  EXPECT_GE(best, make(kind, fmt, maxs).freq_per_area())
      << "max-depth design should not beat the optimum";
}

TEST_P(UnitModelTest, SpeedObjectiveFasterButLarger) {
  const auto [kind, fmt, name] = GetParam();
  const int s = std::max(2, make(kind, fmt, 1).max_stages() / 2);
  const FpUnit area_u = make(kind, fmt, s, device::Objective::kArea);
  const FpUnit speed_u = make(kind, fmt, s, device::Objective::kSpeed);
  EXPECT_GT(speed_u.freq_mhz(), area_u.freq_mhz());
  EXPECT_GT(speed_u.area().total.slices, area_u.area().total.slices);
}

TEST_P(UnitModelTest, ObjectiveDoesNotChangeValues) {
  const auto [kind, fmt, name] = GetParam();
  const FpUnit area_u = make(kind, fmt, 3, device::Objective::kArea);
  const FpUnit speed_u = make(kind, fmt, 3, device::Objective::kSpeed);
  const UnitInput in{fp::make_one(fmt).bits,
                     fp::make_one(fmt).bits, false};
  EXPECT_EQ(area_u.evaluate(in).result, speed_u.evaluate(in).result);
}

INSTANTIATE_TEST_SUITE_P(
    Units, UnitModelTest,
    ::testing::Values(
        KindFmt{UnitKind::kAdder, FpFormat::binary32(), "add32"},
        KindFmt{UnitKind::kAdder, FpFormat::binary48(), "add48"},
        KindFmt{UnitKind::kAdder, FpFormat::binary64(), "add64"},
        KindFmt{UnitKind::kMultiplier, FpFormat::binary32(), "mul32"},
        KindFmt{UnitKind::kMultiplier, FpFormat::binary48(), "mul48"},
        KindFmt{UnitKind::kMultiplier, FpFormat::binary64(), "mul64"}),
    [](const ::testing::TestParamInfo<KindFmt>& info) {
      return info.param.name;
    });

TEST(UnitModel, PaperFrequencyBands) {
  // Abstract: "throughput rates of more than 240Mhz (200Mhz) for single
  // (double) precision operations by deeply pipelining the units".
  for (UnitKind kind : {UnitKind::kAdder, UnitKind::kMultiplier}) {
    const int max32 = make(kind, FpFormat::binary32(), 1).max_stages();
    EXPECT_GT(make(kind, FpFormat::binary32(), max32,
                   device::Objective::kSpeed).freq_mhz(), 240.0)
        << to_string(kind);
    const int max64 = make(kind, FpFormat::binary64(), 1).max_stages();
    EXPECT_GT(make(kind, FpFormat::binary64(), max64,
                   device::Objective::kSpeed).freq_mhz(), 200.0)
        << to_string(kind);
  }
}

TEST(UnitModel, DoubleAdderNeedsSeveralStagesFor200MHz) {
  // Echoes the paper's "54bit adder ... 200MHz with 4 pipelining stages":
  // the unpipelined double adder is far below 200 MHz and reaching it takes
  // several stages.
  EXPECT_LT(make(UnitKind::kAdder, FpFormat::binary64(), 1).freq_mhz(), 100.0);
  int needed = 0;
  for (int s = 1; s <= 32; ++s) {
    if (make(UnitKind::kAdder, FpFormat::binary64(), s).freq_mhz() >= 200.0) {
      needed = s;
      break;
    }
  }
  EXPECT_GE(needed, 6);
  EXPECT_LE(needed, 24);
}

TEST(UnitModel, MaxStagesOrdering) {
  // Wider formats expose more register insertion points.
  EXPECT_GT(make(UnitKind::kAdder, FpFormat::binary64(), 1).max_stages(),
            make(UnitKind::kAdder, FpFormat::binary32(), 1).max_stages());
  // Adders pipeline deeper than multipliers (shifter levels dominate).
  EXPECT_GT(make(UnitKind::kAdder, FpFormat::binary64(), 1).max_stages(),
            make(UnitKind::kMultiplier, FpFormat::binary64(), 1).max_stages());
}

TEST(UnitModel, LatencyEqualsConfiguredStages) {
  for (int s : {1, 3, 7}) {
    const FpUnit u = make(UnitKind::kAdder, FpFormat::binary32(), s);
    EXPECT_EQ(u.latency(), s);
  }
}

}  // namespace
}  // namespace flopsim::units
