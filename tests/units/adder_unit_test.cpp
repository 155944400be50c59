// The structural adder must be bit-exact with the softfloat reference under
// the paper policy, at every pipeline depth, for values and flags alike.
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

struct AdderCase {
  FpFormat fmt;
  RoundingMode rounding;
  // Held inline, not as a pointer, and filling the case to its last
  // byte: gtest prints the case's raw bytes into each test name, and a
  // pointer or padding would make the names differ per process.
  char name[15];
};

class AdderExactnessTest : public ::testing::TestWithParam<AdderCase> {};

FpValue reference_add(const FpValue& a, const FpValue& b, bool subtract,
                      RoundingMode mode, std::uint8_t* flags) {
  FpEnv env = FpEnv::paper(mode);
  const FpValue r = subtract ? fp::sub(a, b, env) : fp::add(a, b, env);
  *flags = env.flags;
  return r;
}

TEST_P(AdderExactnessTest, CombinationalMatchesSoftfloat) {
  const AdderCase pc = GetParam();
  UnitConfig cfg;
  cfg.rounding = pc.rounding;
  const FpUnit unit(UnitKind::kAdder, pc.fmt, cfg);
  ValueGen gen(pc.fmt, 0xadd0 + static_cast<int>(pc.rounding));
  for (int i = 0; i < 60000; ++i) {
    const auto [a, b] = gen.correlated_pair();
    const bool subtract = (i & 1) != 0;
    std::uint8_t ref_flags = 0;
    const FpValue ref = reference_add(a, b, subtract, pc.rounding, &ref_flags);
    const UnitOutput out = unit.evaluate({a.bits, b.bits, subtract});
    ASSERT_EQ(out.result, ref.bits)
        << (subtract ? "sub " : "add ") << to_string(a) << " " << to_string(b)
        << " ref=" << to_string(ref);
    ASSERT_EQ(out.flags, ref_flags)
        << (subtract ? "sub " : "add ") << to_string(a) << " "
        << to_string(b);
  }
}

TEST_P(AdderExactnessTest, UniformBitsIncludingSpecialEncodings) {
  const AdderCase pc = GetParam();
  UnitConfig cfg;
  cfg.rounding = pc.rounding;
  const FpUnit unit(UnitKind::kAdder, pc.fmt, cfg);
  ValueGen gen(pc.fmt, 0xadd100 + static_cast<int>(pc.rounding));
  for (int i = 0; i < 60000; ++i) {
    const FpValue a = gen.uniform_bits();
    const FpValue b = gen.uniform_bits();
    const bool subtract = (i & 1) != 0;
    std::uint8_t ref_flags = 0;
    const FpValue ref = reference_add(a, b, subtract, pc.rounding, &ref_flags);
    const UnitOutput out = unit.evaluate({a.bits, b.bits, subtract});
    ASSERT_EQ(out.result, ref.bits)
        << (subtract ? "sub " : "add ") << to_string(a) << " " << to_string(b)
        << " ref=" << to_string(ref);
    ASSERT_EQ(out.flags, ref_flags);
  }
}

TEST_P(AdderExactnessTest, SpecialsCrossProduct) {
  const AdderCase pc = GetParam();
  UnitConfig cfg;
  cfg.rounding = pc.rounding;
  const FpUnit unit(UnitKind::kAdder, pc.fmt, cfg);
  ValueGen gen(pc.fmt, 3);
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) {
      for (bool subtract : {false, true}) {
        const FpValue a = gen.special(i);
        const FpValue b = gen.special(j);
        std::uint8_t ref_flags = 0;
        const FpValue ref =
            reference_add(a, b, subtract, pc.rounding, &ref_flags);
        const UnitOutput out = unit.evaluate({a.bits, b.bits, subtract});
        ASSERT_EQ(out.result, ref.bits)
            << (subtract ? "sub " : "add ") << to_string(a) << " "
            << to_string(b);
        ASSERT_EQ(out.flags, ref_flags);
      }
    }
  }
}

TEST_P(AdderExactnessTest, EveryPipelineDepthSameBits) {
  const AdderCase pc = GetParam();
  // Pipelining must change latency only. Drive pipelined sims at several
  // depths and check against the combinational result.
  UnitConfig base;
  base.rounding = pc.rounding;
  const FpUnit combinational(UnitKind::kAdder, pc.fmt, base);
  const int max_depth = combinational.max_stages();
  ValueGen gen(pc.fmt, 0xadd200);
  std::vector<UnitInput> vectors;
  for (int i = 0; i < 500; ++i) {
    const auto [a, b] = gen.correlated_pair();
    vectors.push_back({a.bits, b.bits, (i & 1) != 0});
  }
  for (int depth : {1, 2, 3, max_depth / 2, max_depth}) {
    if (depth < 1) continue;
    UnitConfig cfg = base;
    cfg.stages = depth;
    FpUnit unit(UnitKind::kAdder, pc.fmt, cfg);
    ASSERT_EQ(unit.stages(), std::min(depth, max_depth));
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
    Formats, AdderExactnessTest,
    ::testing::Values(
        AdderCase{FpFormat::binary32(), RoundingMode::kNearestEven,
                  "b32_rne"},
        AdderCase{FpFormat::binary32(), RoundingMode::kTowardZero,
                  "b32_trunc"},
        AdderCase{FpFormat::binary48(), RoundingMode::kNearestEven,
                  "b48_rne"},
        AdderCase{FpFormat::binary48(), RoundingMode::kTowardZero,
                  "b48_trunc"},
        AdderCase{FpFormat::binary64(), RoundingMode::kNearestEven,
                  "b64_rne"},
        AdderCase{FpFormat::binary64(), RoundingMode::kTowardZero,
                  "b64_trunc"},
        AdderCase{FpFormat::binary16(), RoundingMode::kNearestEven,
                  "b16_rne"},
        AdderCase{FpFormat::bfloat16(), RoundingMode::kNearestEven,
                  "bf16_rne"}),
    [](const ::testing::TestParamInfo<AdderCase>& info) {
      return info.param.name;
    });

TEST(AdderUnit, RejectsUnsupportedRounding) {
  UnitConfig cfg;
  cfg.rounding = fp::RoundingMode::kTowardPositive;
  EXPECT_THROW(FpUnit(UnitKind::kAdder, FpFormat::binary32(), cfg),
               std::invalid_argument);
}

TEST(AdderUnit, NameDescribesUnit) {
  UnitConfig cfg;
  cfg.stages = 5;
  const FpUnit u(UnitKind::kAdder, FpFormat::binary32(), cfg);
  EXPECT_EQ(u.name(), "fp_add<binary32>/s5");
}

}  // namespace
}  // namespace flopsim::units
