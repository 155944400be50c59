// The structural divider must be bit-exact with fp::div under the paper
// policy at every depth (library extension beyond the paper's two units).
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

struct DivCase {
  FpFormat fmt;
  RoundingMode rounding;
  // Held inline, not as a pointer, and filling the case to its last
  // byte: gtest prints the case's raw bytes into each test name, and a
  // pointer or padding would make the names differ per process.
  char name[15];
};

class DividerExactnessTest : public ::testing::TestWithParam<DivCase> {};

TEST_P(DividerExactnessTest, CombinationalMatchesSoftfloat) {
  const DivCase pc = GetParam();
  UnitConfig cfg;
  cfg.rounding = pc.rounding;
  const FpUnit unit(UnitKind::kDivider, pc.fmt, cfg);
  ValueGen gen(pc.fmt, 0xd1 + static_cast<int>(pc.rounding));
  for (int i = 0; i < 60000; ++i) {
    const FpValue a = gen.uniform_bits();
    const FpValue b = gen.uniform_bits();
    FpEnv env = FpEnv::paper(pc.rounding);
    const FpValue ref = fp::div(a, b, env);
    const UnitOutput out = unit.evaluate({a.bits, b.bits, false});
    ASSERT_EQ(out.result, ref.bits)
        << to_string(a) << " / " << to_string(b) << " ref=" << to_string(ref);
    ASSERT_EQ(out.flags, env.flags) << to_string(a) << " / " << to_string(b);
  }
}

TEST_P(DividerExactnessTest, MidRangeOperandsMatch) {
  const DivCase pc = GetParam();
  UnitConfig cfg;
  cfg.rounding = pc.rounding;
  const FpUnit unit(UnitKind::kDivider, pc.fmt, cfg);
  ValueGen gen(pc.fmt, 0xd2 + static_cast<int>(pc.rounding));
  for (int i = 0; i < 60000; ++i) {
    const FpValue a = gen.near_exp(pc.fmt.bias(), pc.fmt.bias() / 2);
    const FpValue b = gen.near_exp(pc.fmt.bias(), pc.fmt.bias() / 2);
    FpEnv env = FpEnv::paper(pc.rounding);
    const FpValue ref = fp::div(a, b, env);
    const UnitOutput out = unit.evaluate({a.bits, b.bits, false});
    ASSERT_EQ(out.result, ref.bits)
        << to_string(a) << " / " << to_string(b) << " ref=" << to_string(ref);
    ASSERT_EQ(out.flags, env.flags);
  }
}

TEST_P(DividerExactnessTest, SpecialsCrossProduct) {
  const DivCase pc = GetParam();
  UnitConfig cfg;
  cfg.rounding = pc.rounding;
  const FpUnit unit(UnitKind::kDivider, pc.fmt, cfg);
  ValueGen gen(pc.fmt, 5);
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) {
      const FpValue a = gen.special(i);
      const FpValue b = gen.special(j);
      FpEnv env = FpEnv::paper(pc.rounding);
      const FpValue ref = fp::div(a, b, env);
      const UnitOutput out = unit.evaluate({a.bits, b.bits, false});
      ASSERT_EQ(out.result, ref.bits)
          << to_string(a) << " / " << to_string(b);
      ASSERT_EQ(out.flags, env.flags);
    }
  }
}

TEST_P(DividerExactnessTest, EveryPipelineDepthSameBits) {
  const DivCase pc = GetParam();
  UnitConfig base;
  base.rounding = pc.rounding;
  const FpUnit combinational(UnitKind::kDivider, pc.fmt, base);
  const int max_depth = combinational.max_stages();
  ValueGen gen(pc.fmt, 0xd3);
  std::vector<UnitInput> vectors;
  for (int i = 0; i < 300; ++i) {
    vectors.push_back({gen.uniform_bits().bits, gen.uniform_bits().bits,
                       false});
  }
  for (int depth : {1, 2, max_depth / 2, max_depth}) {
    if (depth < 1) continue;
    UnitConfig cfg = base;
    cfg.stages = depth;
    FpUnit unit(UnitKind::kDivider, pc.fmt, cfg);
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
    Formats, DividerExactnessTest,
    ::testing::Values(
        DivCase{FpFormat::binary32(), RoundingMode::kNearestEven, "b32_rne"},
        DivCase{FpFormat::binary32(), RoundingMode::kTowardZero, "b32_trunc"},
        DivCase{FpFormat::binary48(), RoundingMode::kNearestEven, "b48_rne"},
        DivCase{FpFormat::binary64(), RoundingMode::kNearestEven, "b64_rne"},
        DivCase{FpFormat::binary64(), RoundingMode::kTowardZero, "b64_trunc"},
        DivCase{FpFormat::binary16(), RoundingMode::kNearestEven, "b16_rne"}),
    [](const ::testing::TestParamInfo<DivCase>& info) {
      return info.param.name;
    });

TEST(DividerUnit, PipelinesVeryDeep) {
  // Restoring arrays expose roughly one stage per two quotient bits:
  // dividers pipeline deeper than adders of the same width.
  UnitConfig cfg;
  const FpUnit div64(UnitKind::kDivider, FpFormat::binary64(), cfg);
  const FpUnit mul64(UnitKind::kMultiplier, FpFormat::binary64(), cfg);
  EXPECT_GT(div64.max_stages(), mul64.max_stages());
  EXPECT_GE(div64.max_stages(), 30);
}

TEST(DividerUnit, DivByZeroFlagSurfaces) {
  UnitConfig cfg;
  const FpUnit unit(UnitKind::kDivider, FpFormat::binary32(), cfg);
  const UnitOutput out =
      unit.evaluate({fp::make_one(FpFormat::binary32()).bits, 0, false});
  EXPECT_TRUE((out.flags & fp::kFlagDivByZero) != 0);
  EXPECT_EQ(out.result, fp::make_inf(FpFormat::binary32()).bits);
}

TEST(DividerUnit, NameAndUnsupportedRounding) {
  UnitConfig cfg;
  cfg.stages = 4;
  const FpUnit u(UnitKind::kDivider, FpFormat::binary32(), cfg);
  EXPECT_EQ(u.name(), "fp_div<binary32>/s4");
  UnitConfig bad;
  bad.rounding = fp::RoundingMode::kTowardNegative;
  EXPECT_THROW(FpUnit(UnitKind::kDivider, FpFormat::binary32(), bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace flopsim::units
