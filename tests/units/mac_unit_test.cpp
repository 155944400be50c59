// Fused MAC core: bit-exact with fp::fma under the paper policy at every
// depth, including the catastrophic-cancellation cases only a fused
// datapath gets right.
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

struct MacCase {
  FpFormat fmt;
  RoundingMode rounding;
  // Held inline, not as a pointer, and filling the case to its last
  // byte: gtest prints the case's raw bytes into each test name, and a
  // pointer or padding would make the names differ per process.
  char name[15];
};

class MacExactnessTest : public ::testing::TestWithParam<MacCase> {};

TEST_P(MacExactnessTest, UniformRandomTriples) {
  const MacCase pc = GetParam();
  UnitConfig cfg;
  cfg.rounding = pc.rounding;
  const FpUnit unit(UnitKind::kMac, pc.fmt, cfg);
  ValueGen gen(pc.fmt, 0x3ac1 + static_cast<int>(pc.rounding));
  for (int i = 0; i < 60000; ++i) {
    const FpValue a = gen.uniform_bits();
    const FpValue b = gen.uniform_bits();
    const FpValue c = gen.uniform_bits();
    FpEnv env = FpEnv::paper(pc.rounding);
    const FpValue ref = fp::fma(a, b, c, env);
    const UnitOutput out = unit.evaluate({a.bits, b.bits, false, c.bits});
    ASSERT_EQ(out.result, ref.bits)
        << to_string(a) << " * " << to_string(b) << " + " << to_string(c);
    ASSERT_EQ(out.flags, env.flags);
  }
}

TEST_P(MacExactnessTest, CancellationStress) {
  // c ~ -(a*b): the single-rounding residual path.
  const MacCase pc = GetParam();
  UnitConfig cfg;
  cfg.rounding = pc.rounding;
  const FpUnit unit(UnitKind::kMac, pc.fmt, cfg);
  ValueGen gen(pc.fmt, 0x3ac2);
  for (int i = 0; i < 60000; ++i) {
    const auto [a, b] = gen.correlated_pair();
    FpEnv e0 = FpEnv::paper(pc.rounding);
    const FpValue c = fp::neg(fp::mul(a, b, e0));
    FpEnv env = FpEnv::paper(pc.rounding);
    const FpValue ref = fp::fma(a, b, c, env);
    const UnitOutput out = unit.evaluate({a.bits, b.bits, false, c.bits});
    ASSERT_EQ(out.result, ref.bits)
        << to_string(a) << " * " << to_string(b) << " + " << to_string(c);
    ASSERT_EQ(out.flags, env.flags);
  }
}

TEST_P(MacExactnessTest, SpecialsCrossProduct) {
  const MacCase pc = GetParam();
  UnitConfig cfg;
  cfg.rounding = pc.rounding;
  const FpUnit unit(UnitKind::kMac, pc.fmt, cfg);
  ValueGen gen(pc.fmt, 8);
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) {
      for (int k = 0; k < 16; k += 3) {
        const FpValue a = gen.special(i);
        const FpValue b = gen.special(j);
        const FpValue c = gen.special(k);
        FpEnv env = FpEnv::paper(pc.rounding);
        const FpValue ref = fp::fma(a, b, c, env);
        const UnitOutput out =
            unit.evaluate({a.bits, b.bits, false, c.bits});
        ASSERT_EQ(out.result, ref.bits)
            << to_string(a) << " * " << to_string(b) << " + " << to_string(c);
        ASSERT_EQ(out.flags, env.flags);
      }
    }
  }
}

TEST_P(MacExactnessTest, EveryPipelineDepthSameBits) {
  const MacCase pc = GetParam();
  UnitConfig base;
  base.rounding = pc.rounding;
  const FpUnit comb(UnitKind::kMac, pc.fmt, base);
  const int max_depth = comb.max_stages();
  ValueGen gen(pc.fmt, 0x3ac3);
  std::vector<UnitInput> vectors;
  for (int i = 0; i < 300; ++i) {
    vectors.push_back({gen.uniform_bits().bits, gen.uniform_bits().bits,
                       false, gen.uniform_bits().bits});
  }
  for (int depth : {1, 2, max_depth / 2, max_depth}) {
    if (depth < 1) continue;
    UnitConfig cfg = base;
    cfg.stages = depth;
    FpUnit unit(UnitKind::kMac, pc.fmt, cfg);
    std::size_t got = 0;
    for (std::size_t i = 0; i < vectors.size() + unit.latency(); ++i) {
      unit.step(i < vectors.size() ? std::optional<UnitInput>(vectors[i])
                                   : std::nullopt);
      if (const auto out = unit.output()) {
        const UnitOutput ref = comb.evaluate(vectors[got]);
        ASSERT_EQ(out->result, ref.result) << "depth " << depth;
        ASSERT_EQ(out->flags, ref.flags) << "depth " << depth;
        ++got;
      }
    }
    ASSERT_EQ(got, vectors.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, MacExactnessTest,
    ::testing::Values(
        MacCase{FpFormat::binary32(), RoundingMode::kNearestEven, "b32_rne"},
        MacCase{FpFormat::binary32(), RoundingMode::kTowardZero, "b32_trunc"},
        MacCase{FpFormat::binary48(), RoundingMode::kNearestEven, "b48_rne"},
        MacCase{FpFormat::binary64(), RoundingMode::kNearestEven, "b64_rne"},
        MacCase{FpFormat::binary64(), RoundingMode::kTowardZero,
                "b64_trunc"}),
    [](const ::testing::TestParamInfo<MacCase>& info) {
      return info.param.name;
    });

TEST(MacUnit, ExhaustiveTinyFormatSampledAddend) {
  const FpFormat tiny(4, 3);
  UnitConfig cfg;
  const FpUnit unit(UnitKind::kMac, tiny, cfg);
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      for (unsigned c = 0; c < 256; c += 7) {  // every 7th addend
        FpEnv env = FpEnv::paper();
        const FpValue ref =
            fp::fma(FpValue(a, tiny), FpValue(b, tiny), FpValue(c, tiny),
                    env);
        const UnitOutput out = unit.evaluate({a, b, false, c});
        ASSERT_EQ(out.result, ref.bits) << a << "," << b << "," << c;
        ASSERT_EQ(out.flags, env.flags) << a << "," << b << "," << c;
      }
    }
  }
}

TEST(MacUnit, SingleRoundingBeatsSeparateUnits) {
  // The fused core returns the exact residual where mult+add returns 0.
  const FpFormat fmt = FpFormat::binary64();
  UnitConfig cfg;
  const FpUnit mac(UnitKind::kMac, fmt, cfg);
  FpEnv env = FpEnv::paper();
  const FpValue a = fp::from_double(1.0 + std::ldexp(1.0, -30), fmt, env);
  const FpValue c = fp::neg(fp::mul(a, a, env));
  const UnitOutput fused = mac.evaluate({a.bits, a.bits, false, c.bits});
  // Residual of (1+2^-30)^2 rounding: 2^-60, nonzero.
  EXPECT_NE(fused.result, 0u);
  const FpUnit mul_u(UnitKind::kMultiplier, fmt, cfg);
  const FpUnit add_u(UnitKind::kAdder, fmt, cfg);
  const UnitOutput p = mul_u.evaluate({a.bits, a.bits, false});
  const UnitOutput two_step = add_u.evaluate({p.result, c.bits, false});
  EXPECT_EQ(two_step.result, 0u);  // the two-rounding path loses it
}

TEST(MacUnit, CostProfileVsSeparateUnits) {
  // Fusion saves the duplicated denorm/round tails but pays for the
  // double-width align/add/normalize: area lands near the separate pair,
  // while the wide datapath caps the clock below it.
  UnitConfig cfg;
  cfg.stages = 12;
  const FpUnit mac(UnitKind::kMac, FpFormat::binary64(), cfg);
  const FpUnit add(UnitKind::kAdder, FpFormat::binary64(), cfg);
  const FpUnit mul(UnitKind::kMultiplier, FpFormat::binary64(), cfg);
  const int pair = add.area().total.slices + mul.area().total.slices;
  EXPECT_GT(mac.area().total.slices, 0.75 * pair);
  EXPECT_LT(mac.area().total.slices, 1.25 * pair);
  EXPECT_EQ(mac.area().total.bmults, mul.area().total.bmults);
  UnitConfig deep;
  deep.stages = 999;
  EXPECT_LT(FpUnit(UnitKind::kMac, FpFormat::binary64(), deep).freq_mhz(),
            std::min(FpUnit(UnitKind::kAdder, FpFormat::binary64(), deep)
                         .freq_mhz(),
                     FpUnit(UnitKind::kMultiplier, FpFormat::binary64(), deep)
                         .freq_mhz()));
  EXPECT_EQ(mac.name(), "fp_mac<binary64>/s12");
}

}  // namespace
}  // namespace flopsim::units
