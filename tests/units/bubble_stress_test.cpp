// Pipeline robustness under irregular issue patterns: random bubbles must
// never reorder, drop, or corrupt results in any unit at any depth.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "fp/ops.hpp"
#include "units/fp_unit.hpp"
#include "../fp/test_util.hpp"

namespace flopsim::units {
namespace {

struct StressCase {
  UnitKind kind;
  std::int16_t stages;
  // Held inline, not as a pointer: gtest prints the case's raw bytes into
  // each test name, and a pointer would make the names differ per process.
  // With 16-bit stages the longest name fits in the case's 16 bytes.
  char name[10];
};

class BubbleStressTest : public ::testing::TestWithParam<StressCase> {};

TEST_P(BubbleStressTest, RandomBubblesPreserveOrderAndValues) {
  const auto [kind, stages, name] = GetParam();
  const fp::FpFormat fmt = fp::FpFormat::binary32();
  UnitConfig cfg;
  cfg.stages = stages;
  FpUnit unit(kind, fmt, cfg);
  const FpUnit ref_unit(kind, fmt, UnitConfig{});

  fp::testing::ValueGen gen(fmt, 0xb0b1e + stages);
  std::mt19937_64 bubble_rng(99);
  std::vector<UnitInput> issued;
  std::vector<UnitOutput> received;
  constexpr int kOps = 2000;
  int sent = 0;
  long cycle = 0;
  while (static_cast<int>(received.size()) < kOps) {
    std::optional<UnitInput> in;
    if (sent < kOps && (bubble_rng() % 3) != 0) {  // ~2/3 duty cycle
      in = UnitInput{gen.uniform_bits().bits, gen.uniform_bits().bits,
                     (bubble_rng() & 1) != 0 && kind == UnitKind::kAdder};
      issued.push_back(*in);
      ++sent;
    }
    unit.step(in);
    if (const auto out = unit.output()) received.push_back(*out);
    ++cycle;
    ASSERT_LT(cycle, 10L * kOps) << "stall: outputs not arriving";
  }
  ASSERT_EQ(received.size(), issued.size());
  for (std::size_t i = 0; i < issued.size(); ++i) {
    const UnitOutput expect = ref_unit.evaluate(issued[i]);
    ASSERT_EQ(received[i].result, expect.result) << "op " << i;
    ASSERT_EQ(received[i].flags, expect.flags) << "op " << i;
  }
}

TEST_P(BubbleStressTest, ResetMidStreamDropsInFlightOnly) {
  const auto [kind, stages, name] = GetParam();
  const fp::FpFormat fmt = fp::FpFormat::binary32();
  UnitConfig cfg;
  cfg.stages = stages;
  FpUnit unit(kind, fmt, cfg);
  fp::testing::ValueGen gen(fmt, 7);
  // Fill the pipe, reset, then verify fresh work flows normally.
  for (int i = 0; i < stages; ++i) {
    unit.step(UnitInput{gen.uniform_bits().bits, gen.uniform_bits().bits,
                        false});
  }
  unit.reset();
  ASSERT_FALSE(unit.output().has_value());
  const fp::u64 one = fp::make_one(fmt).bits;
  unit.step(UnitInput{one, one, false});
  for (int i = 1; i < unit.latency(); ++i) {
    ASSERT_FALSE(unit.output().has_value()) << "cycle " << i;
    unit.step(std::nullopt);
  }
  ASSERT_TRUE(unit.output().has_value());
  const FpUnit ref_unit(kind, fmt, UnitConfig{});
  EXPECT_EQ(unit.output()->result,
            ref_unit.evaluate(UnitInput{one, one, false}).result);
}

INSTANTIATE_TEST_SUITE_P(
    Units, BubbleStressTest,
    ::testing::Values(StressCase{UnitKind::kAdder, 3, "add_s3"},
                      StressCase{UnitKind::kAdder, 12, "add_s12"},
                      StressCase{UnitKind::kMultiplier, 5, "mul_s5"},
                      StressCase{UnitKind::kDivider, 16, "div_s16"},
                      StressCase{UnitKind::kSqrt, 10, "sqrt_s10"}),
    [](const ::testing::TestParamInfo<StressCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace flopsim::units
