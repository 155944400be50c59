// The structural multiplier must be bit-exact with fp::mul under the paper
// policy at every depth.
#include <gtest/gtest.h>

#include "fp/ops.hpp"
#include "units/fp_unit.hpp"
#include "../fp/test_util.hpp"

namespace flopsim::units {
namespace {

using fp::FpEnv;
using fp::FpFormat;
using fp::FpValue;
using fp::RoundingMode;
using fp::testing::ValueGen;

struct MulCase {
  FpFormat fmt;
  RoundingMode rounding;
  // Held inline, not as a pointer, and filling the case to its last
  // byte: gtest prints the case's raw bytes into each test name, and a
  // pointer or padding would make the names differ per process.
  char name[15];
};

class MultiplierExactnessTest : public ::testing::TestWithParam<MulCase> {};

TEST_P(MultiplierExactnessTest, CombinationalMatchesSoftfloat) {
  const MulCase pc = GetParam();
  UnitConfig cfg;
  cfg.rounding = pc.rounding;
  const FpUnit unit(UnitKind::kMultiplier, pc.fmt, cfg);
  ValueGen gen(pc.fmt, 0x301 + static_cast<int>(pc.rounding));
  for (int i = 0; i < 60000; ++i) {
    const FpValue a = gen.uniform_bits();
    const FpValue b = gen.uniform_bits();
    FpEnv env = FpEnv::paper(pc.rounding);
    const FpValue ref = fp::mul(a, b, env);
    const UnitOutput out = unit.evaluate({a.bits, b.bits, false});
    ASSERT_EQ(out.result, ref.bits)
        << to_string(a) << " * " << to_string(b) << " ref=" << to_string(ref);
    ASSERT_EQ(out.flags, env.flags)
        << to_string(a) << " * " << to_string(b);
  }
}

TEST_P(MultiplierExactnessTest, MidRangeOperandsMatch) {
  // Mid-exponent operands avoid over/underflow and stress the mantissa
  // datapath (all BMULT chunks active, rounding paths).
  const MulCase pc = GetParam();
  UnitConfig cfg;
  cfg.rounding = pc.rounding;
  const FpUnit unit(UnitKind::kMultiplier, pc.fmt, cfg);
  ValueGen gen(pc.fmt, 0x3020 + static_cast<int>(pc.rounding));
  for (int i = 0; i < 60000; ++i) {
    const FpValue a = gen.near_exp(pc.fmt.bias(), pc.fmt.bias() / 2);
    const FpValue b = gen.near_exp(pc.fmt.bias(), pc.fmt.bias() / 2);
    FpEnv env = FpEnv::paper(pc.rounding);
    const FpValue ref = fp::mul(a, b, env);
    const UnitOutput out = unit.evaluate({a.bits, b.bits, false});
    ASSERT_EQ(out.result, ref.bits)
        << to_string(a) << " * " << to_string(b) << " ref=" << to_string(ref);
    ASSERT_EQ(out.flags, env.flags);
  }
}

TEST_P(MultiplierExactnessTest, SpecialsCrossProduct) {
  const MulCase pc = GetParam();
  UnitConfig cfg;
  cfg.rounding = pc.rounding;
  const FpUnit unit(UnitKind::kMultiplier, pc.fmt, cfg);
  ValueGen gen(pc.fmt, 4);
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) {
      const FpValue a = gen.special(i);
      const FpValue b = gen.special(j);
      FpEnv env = FpEnv::paper(pc.rounding);
      const FpValue ref = fp::mul(a, b, env);
      const UnitOutput out = unit.evaluate({a.bits, b.bits, false});
      ASSERT_EQ(out.result, ref.bits)
          << to_string(a) << " * " << to_string(b);
      ASSERT_EQ(out.flags, env.flags);
    }
  }
}

TEST_P(MultiplierExactnessTest, EveryPipelineDepthSameBits) {
  const MulCase pc = GetParam();
  UnitConfig base;
  base.rounding = pc.rounding;
  const FpUnit combinational(UnitKind::kMultiplier, pc.fmt, base);
  const int max_depth = combinational.max_stages();
  ValueGen gen(pc.fmt, 0x303);
  std::vector<UnitInput> vectors;
  for (int i = 0; i < 500; ++i) {
    const FpValue a = gen.uniform_bits();
    const FpValue b = gen.uniform_bits();
    vectors.push_back({a.bits, b.bits, false});
  }
  for (int depth : {1, 2, 3, max_depth / 2, max_depth}) {
    if (depth < 1) continue;
    UnitConfig cfg = base;
    cfg.stages = depth;
    FpUnit unit(UnitKind::kMultiplier, pc.fmt, cfg);
    std::size_t received = 0;
    for (std::size_t i = 0; i < vectors.size() + unit.latency(); ++i) {
      unit.step(i < vectors.size() ? std::optional<UnitInput>(vectors[i])
                                   : std::nullopt);
      if (const auto out = unit.output()) {
        const UnitOutput ref = combinational.evaluate(vectors[received]);
        ASSERT_EQ(out->result, ref.result) << "depth=" << depth;
        ASSERT_EQ(out->flags, ref.flags) << "depth=" << depth;
        ++received;
      }
    }
    ASSERT_EQ(received, vectors.size()) << "depth=" << depth;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, MultiplierExactnessTest,
    ::testing::Values(
        MulCase{FpFormat::binary32(), RoundingMode::kNearestEven, "b32_rne"},
        MulCase{FpFormat::binary32(), RoundingMode::kTowardZero, "b32_trunc"},
        MulCase{FpFormat::binary48(), RoundingMode::kNearestEven, "b48_rne"},
        MulCase{FpFormat::binary48(), RoundingMode::kTowardZero, "b48_trunc"},
        MulCase{FpFormat::binary64(), RoundingMode::kNearestEven, "b64_rne"},
        MulCase{FpFormat::binary64(), RoundingMode::kTowardZero, "b64_trunc"},
        MulCase{FpFormat::binary16(), RoundingMode::kNearestEven, "b16_rne"},
        MulCase{FpFormat::bfloat16(), RoundingMode::kNearestEven,
                "bf16_rne"}),
    [](const ::testing::TestParamInfo<MulCase>& info) {
      return info.param.name;
    });

TEST(MultiplierUnit, UsesEmbeddedMultipliers) {
  UnitConfig cfg;
  // binary64: 53-bit significand -> 4x4 = 16 MULT18X18 blocks.
  const FpUnit u64(UnitKind::kMultiplier, FpFormat::binary64(), cfg);
  EXPECT_EQ(u64.area().total.bmults, 16);
  // binary32: 24-bit significand -> 2x2 = 4 blocks.
  const FpUnit u32(UnitKind::kMultiplier, FpFormat::binary32(), cfg);
  EXPECT_EQ(u32.area().total.bmults, 4);
  // binary16: 11-bit significand -> a single block.
  const FpUnit u16(UnitKind::kMultiplier, FpFormat::binary16(), cfg);
  EXPECT_EQ(u16.area().total.bmults, 1);
}

}  // namespace
}  // namespace flopsim::units
