// Structural square root: bit-exact with fp::sqrt under the paper policy
// at every pipeline depth, plus exhaustive coverage on the tiny format.
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

struct SqrtCase {
  FpFormat fmt;
  RoundingMode rounding;
  // Held inline, not as a pointer, and filling the case to its last
  // byte: gtest prints the case's raw bytes into each test name, and a
  // pointer or padding would make the names differ per process.
  char name[15];
};

class SqrtExactnessTest : public ::testing::TestWithParam<SqrtCase> {};

TEST_P(SqrtExactnessTest, CombinationalMatchesSoftfloat) {
  const SqrtCase pc = GetParam();
  UnitConfig cfg;
  cfg.rounding = pc.rounding;
  const FpUnit unit(UnitKind::kSqrt, pc.fmt, cfg);
  ValueGen gen(pc.fmt, 0x5042 + static_cast<int>(pc.rounding));
  for (int i = 0; i < 60000; ++i) {
    const FpValue a = gen.uniform_bits();
    FpEnv env = FpEnv::paper(pc.rounding);
    const FpValue ref = fp::sqrt(a, env);
    const UnitOutput out = unit.evaluate({a.bits, 0, false});
    ASSERT_EQ(out.result, ref.bits)
        << "sqrt " << to_string(a) << " ref=" << to_string(ref);
    ASSERT_EQ(out.flags, env.flags) << "sqrt " << to_string(a);
  }
}

TEST_P(SqrtExactnessTest, SpecialsAndEdges) {
  const SqrtCase pc = GetParam();
  UnitConfig cfg;
  cfg.rounding = pc.rounding;
  const FpUnit unit(UnitKind::kSqrt, pc.fmt, cfg);
  ValueGen gen(pc.fmt, 6);
  for (int i = 0; i < 16; ++i) {
    const FpValue a = gen.special(i);
    FpEnv env = FpEnv::paper(pc.rounding);
    const FpValue ref = fp::sqrt(a, env);
    const UnitOutput out = unit.evaluate({a.bits, 0, false});
    ASSERT_EQ(out.result, ref.bits) << "sqrt " << to_string(a);
    ASSERT_EQ(out.flags, env.flags);
  }
}

TEST_P(SqrtExactnessTest, EveryPipelineDepthSameBits) {
  const SqrtCase pc = GetParam();
  UnitConfig base;
  base.rounding = pc.rounding;
  const FpUnit combinational(UnitKind::kSqrt, pc.fmt, base);
  const int max_depth = combinational.max_stages();
  ValueGen gen(pc.fmt, 0x5043);
  std::vector<UnitInput> vectors;
  for (int i = 0; i < 300; ++i) {
    vectors.push_back({gen.uniform_bits().bits, 0, false});
  }
  for (int depth : {1, 2, max_depth / 2, max_depth}) {
    if (depth < 1) continue;
    UnitConfig cfg = base;
    cfg.stages = depth;
    FpUnit unit(UnitKind::kSqrt, pc.fmt, cfg);
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
    Formats, SqrtExactnessTest,
    ::testing::Values(
        SqrtCase{FpFormat::binary32(), RoundingMode::kNearestEven, "b32_rne"},
        SqrtCase{FpFormat::binary32(), RoundingMode::kTowardZero,
                 "b32_trunc"},
        SqrtCase{FpFormat::binary48(), RoundingMode::kNearestEven, "b48_rne"},
        SqrtCase{FpFormat::binary64(), RoundingMode::kNearestEven, "b64_rne"},
        SqrtCase{FpFormat::binary64(), RoundingMode::kTowardZero,
                 "b64_trunc"},
        SqrtCase{FpFormat::binary16(), RoundingMode::kNearestEven,
                 "b16_rne"}),
    [](const ::testing::TestParamInfo<SqrtCase>& info) {
      return info.param.name;
    });

TEST(SqrtUnit, ExhaustiveTinyFormat) {
  const FpFormat tiny(4, 3);
  for (RoundingMode mode :
       {RoundingMode::kNearestEven, RoundingMode::kTowardZero}) {
    UnitConfig cfg;
    cfg.rounding = mode;
    const FpUnit unit(UnitKind::kSqrt, tiny, cfg);
    for (unsigned a = 0; a < 256; ++a) {
      FpEnv env = FpEnv::paper(mode);
      const FpValue ref = fp::sqrt(FpValue(a, tiny), env);
      const UnitOutput out = unit.evaluate({a, 0, false});
      ASSERT_EQ(out.result, ref.bits) << a;
      ASSERT_EQ(out.flags, env.flags) << a;
    }
  }
}

TEST(SqrtUnit, PipelinesDeep) {
  UnitConfig cfg;
  const FpUnit s64(UnitKind::kSqrt, FpFormat::binary64(), cfg);
  EXPECT_GE(s64.max_stages(), 30);
  EXPECT_EQ(s64.area().total.bmults, 0);  // pure fabric
}

TEST(SqrtUnit, Name) {
  UnitConfig cfg;
  cfg.stages = 3;
  EXPECT_EQ(FpUnit(UnitKind::kSqrt, FpFormat::binary32(), cfg).name(),
            "fp_sqrt<binary32>/s3");
}

}  // namespace
}  // namespace flopsim::units
