// IEEE-mode units (gradual underflow + NaN handling in hardware): bit-exact
// with fp:: under FpEnv::ieee at every depth, exhaustively on the tiny
// format — and measurably more expensive than the paper-policy cores,
// quantifying the cost the paper declined to pay.
#include <gtest/gtest.h>

#include <string>

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

/// NaN results canonicalize (hardware produces the canonical qNaN; the
/// softfloat does too, but compare robustly).
fp::u64 canonical(const FpValue& v) {
  return v.is_nan() ? (v.fmt.exp_mask() | v.fmt.quiet_bit()) : v.bits;
}

struct IeeeCase {
  UnitKind kind;
  FpFormat fmt;
  RoundingMode rounding;
  // The unit kind and width ("add64"); the test name appends the
  // rounding. Held inline, not as a pointer, and filling the case to its
  // last byte: gtest prints the case's raw bytes into each test name, and
  // a pointer or padding would make the names differ per process.
  char label[11];
};

class IeeeModeTest : public ::testing::TestWithParam<IeeeCase> {};

TEST_P(IeeeModeTest, MatchesSoftfloatIncludingSubnormalsAndNaNs) {
  const auto [kind, fmt, rounding, label] = GetParam();
  UnitConfig cfg;
  cfg.ieee_mode = true;
  cfg.rounding = rounding;
  const FpUnit unit(kind, fmt, cfg);
  ValueGen gen(fmt, 0x1eee);
  for (int i = 0; i < 60000; ++i) {
    const FpValue a = gen.uniform_bits();
    const FpValue b = gen.uniform_bits();
    const bool sub = (i & 1) != 0 && kind == UnitKind::kAdder;
    FpEnv env = FpEnv::ieee(rounding);
    const FpValue ref =
        kind == UnitKind::kAdder
            ? (sub ? fp::sub(a, b, env) : fp::add(a, b, env))
            : fp::mul(a, b, env);
    const UnitOutput out = unit.evaluate({a.bits, b.bits, sub});
    ASSERT_EQ(out.result, canonical(ref))
        << to_string(a) << (sub ? " - " : " op ") << to_string(b);
    ASSERT_EQ(out.flags, env.flags)
        << to_string(a) << " op " << to_string(b);
  }
}

TEST_P(IeeeModeTest, SubnormalHeavyOperands) {
  const auto [kind, fmt, rounding, label] = GetParam();
  UnitConfig cfg;
  cfg.ieee_mode = true;
  cfg.rounding = rounding;
  const FpUnit unit(kind, fmt, cfg);
  ValueGen gen(fmt, 0x1eef);
  for (int i = 0; i < 40000; ++i) {
    // Force subnormal / near-subnormal encodings.
    const FpValue a(gen.rng()() & (fmt.frac_mask() | fmt.sign_mask() |
                                   (fp::u64{3} << fmt.frac_bits())),
                    fmt);
    const FpValue b(gen.rng()() & (fmt.frac_mask() | fmt.sign_mask()), fmt);
    FpEnv env = FpEnv::ieee(rounding);
    const FpValue ref = kind == UnitKind::kAdder ? fp::add(a, b, env)
                                                 : fp::mul(a, b, env);
    const UnitOutput out = unit.evaluate({a.bits, b.bits, false});
    ASSERT_EQ(out.result, canonical(ref))
        << to_string(a) << " op " << to_string(b);
    ASSERT_EQ(out.flags, env.flags);
  }
}

TEST_P(IeeeModeTest, EveryDepthSameBits) {
  const auto [kind, fmt, rounding, label] = GetParam();
  UnitConfig base;
  base.ieee_mode = true;
  base.rounding = rounding;
  const FpUnit comb(kind, fmt, base);
  ValueGen gen(fmt, 0x1ef0);
  std::vector<UnitInput> vectors;
  for (int i = 0; i < 400; ++i) {
    vectors.push_back({gen.uniform_bits().bits, gen.uniform_bits().bits,
                       false});
  }
  for (int depth : {1, 3, comb.max_stages()}) {
    UnitConfig cfg = base;
    cfg.stages = depth;
    FpUnit unit(kind, fmt, cfg);
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
    Cases, IeeeModeTest,
    ::testing::Values(
        IeeeCase{UnitKind::kAdder, FpFormat::binary32(),
                 RoundingMode::kNearestEven, "add32"},
        IeeeCase{UnitKind::kAdder, FpFormat::binary64(),
                 RoundingMode::kNearestEven, "add64"},
        IeeeCase{UnitKind::kAdder, FpFormat::binary64(),
                 RoundingMode::kTowardZero, "add64"},
        IeeeCase{UnitKind::kMultiplier, FpFormat::binary32(),
                 RoundingMode::kNearestEven, "mul32"},
        IeeeCase{UnitKind::kMultiplier, FpFormat::binary64(),
                 RoundingMode::kNearestEven, "mul64"},
        IeeeCase{UnitKind::kMultiplier, FpFormat::binary48(),
                 RoundingMode::kTowardZero, "mul48"}),
    [](const ::testing::TestParamInfo<IeeeCase>& info) {
      return std::string(info.param.label) +
             (info.param.rounding == RoundingMode::kTowardZero ? "_trunc"
                                                               : "_rne");
    });

TEST(IeeeMode, ExhaustiveTinyFormat) {
  const FpFormat tiny(4, 3);
  for (UnitKind kind : {UnitKind::kAdder, UnitKind::kMultiplier}) {
    UnitConfig cfg;
    cfg.ieee_mode = true;
    const FpUnit unit(kind, tiny, cfg);
    for (unsigned a = 0; a < 256; ++a) {
      for (unsigned b = 0; b < 256; ++b) {
        FpEnv env = FpEnv::ieee();
        const FpValue ref = kind == UnitKind::kAdder
                                ? fp::add(FpValue(a, tiny), FpValue(b, tiny),
                                          env)
                                : fp::mul(FpValue(a, tiny), FpValue(b, tiny),
                                          env);
        const UnitOutput out = unit.evaluate({a, b, false});
        ASSERT_EQ(out.result, canonical(ref))
            << to_string(kind) << " " << a << " op " << b;
        ASSERT_EQ(out.flags, env.flags)
            << to_string(kind) << " " << a << " op " << b;
      }
    }
  }
}

TEST(IeeeMode, CostsMeasurablyMoreHardware) {
  // The paper's claim, quantified: denormal/NaN support "may not justify
  // the usage of a lot of hardware".
  // The adder only adds the result denormalizer (~8%); the multiplier also
  // needs two operand normalizers (~40%).
  struct Expect {
    UnitKind kind;
    double min_area_factor;
  };
  for (const Expect& e : {Expect{UnitKind::kAdder, 1.05},
                          Expect{UnitKind::kMultiplier, 1.25}}) {
    const UnitKind kind = e.kind;
    UnitConfig paper_cfg;
    paper_cfg.stages = 10;
    UnitConfig ieee_cfg = paper_cfg;
    ieee_cfg.ieee_mode = true;
    const FpUnit paper_u(kind, FpFormat::binary64(), paper_cfg);
    const FpUnit ieee_u(kind, FpFormat::binary64(), ieee_cfg);
    EXPECT_GT(ieee_u.area().total.slices,
              e.min_area_factor * paper_u.area().total.slices)
        << to_string(kind);
    EXPECT_GT(ieee_u.max_stages(), paper_u.max_stages()) << to_string(kind);
    // At matched depth the IEEE unit clocks no faster.
    EXPECT_LE(ieee_u.freq_mhz(), paper_u.freq_mhz() + 1e-9)
        << to_string(kind);
  }
}

TEST(IeeeMode, DividerMatchesSoftfloat) {
  UnitConfig cfg;
  cfg.ieee_mode = true;
  for (const FpFormat& fmt : {FpFormat::binary32(), FpFormat::binary64()}) {
    const FpUnit unit(UnitKind::kDivider, fmt, cfg);
    ValueGen gen(fmt, 0xd1ee);
    for (int i = 0; i < 60000; ++i) {
      const FpValue a = gen.uniform_bits();
      const FpValue b = gen.uniform_bits();
      FpEnv env = FpEnv::ieee();
      const FpValue ref = fp::div(a, b, env);
      const UnitOutput out = unit.evaluate({a.bits, b.bits, false});
      ASSERT_EQ(out.result, canonical(ref))
          << to_string(a) << " / " << to_string(b);
      ASSERT_EQ(out.flags, env.flags);
    }
  }
}

TEST(IeeeMode, DividerExhaustiveTiny) {
  const FpFormat tiny(4, 3);
  UnitConfig cfg;
  cfg.ieee_mode = true;
  const FpUnit unit(UnitKind::kDivider, tiny, cfg);
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      FpEnv env = FpEnv::ieee();
      const FpValue ref = fp::div(FpValue(a, tiny), FpValue(b, tiny), env);
      const UnitOutput out = unit.evaluate({a, b, false});
      ASSERT_EQ(out.result, canonical(ref)) << a << "/" << b;
      ASSERT_EQ(out.flags, env.flags) << a << "/" << b;
    }
  }
}

TEST(IeeeMode, SqrtMatchesSoftfloatExhaustiveAndRandom) {
  UnitConfig cfg;
  cfg.ieee_mode = true;
  const FpFormat tiny(4, 3);
  const FpUnit tu(UnitKind::kSqrt, tiny, cfg);
  for (unsigned a = 0; a < 256; ++a) {
    FpEnv env = FpEnv::ieee();
    const FpValue ref = fp::sqrt(FpValue(a, tiny), env);
    const UnitOutput out = tu.evaluate({a, 0, false});
    ASSERT_EQ(out.result, canonical(ref)) << a;
    ASSERT_EQ(out.flags, env.flags) << a;
  }
  const FpUnit u64u(UnitKind::kSqrt, FpFormat::binary64(), cfg);
  ValueGen gen(FpFormat::binary64(), 0x50ee);
  for (int i = 0; i < 60000; ++i) {
    const FpValue a = gen.uniform_bits();
    FpEnv env = FpEnv::ieee();
    const FpValue ref = fp::sqrt(a, env);
    const UnitOutput out = u64u.evaluate({a.bits, 0, false});
    ASSERT_EQ(out.result, canonical(ref)) << to_string(a);
    ASSERT_EQ(out.flags, env.flags);
  }
}

TEST(IeeeMode, MacMatchesSoftfloat) {
  UnitConfig cfg;
  cfg.ieee_mode = true;
  for (const FpFormat& fmt : {FpFormat::binary32(), FpFormat::binary64()}) {
    const FpUnit unit(UnitKind::kMac, fmt, cfg);
    ValueGen gen(fmt, 0x3aee);
    for (int i = 0; i < 60000; ++i) {
      const FpValue a = gen.uniform_bits();
      const FpValue b = gen.uniform_bits();
      const FpValue c = gen.uniform_bits();
      FpEnv env = FpEnv::ieee();
      const FpValue ref = fp::fma(a, b, c, env);
      const UnitOutput out = unit.evaluate({a.bits, b.bits, false, c.bits});
      ASSERT_EQ(out.result, canonical(ref))
          << to_string(a) << "*" << to_string(b) << "+" << to_string(c);
      ASSERT_EQ(out.flags, env.flags);
    }
  }
}

TEST(IeeeMode, MacSubnormalHeavyTriples) {
  UnitConfig cfg;
  cfg.ieee_mode = true;
  const FpFormat fmt = FpFormat::binary32();
  const FpUnit unit(UnitKind::kMac, fmt, cfg);
  ValueGen gen(fmt, 0x3aef);
  for (int i = 0; i < 60000; ++i) {
    const FpValue a(gen.rng()() & (fmt.frac_mask() | fmt.sign_mask() |
                                   (fp::u64{3} << fmt.frac_bits())),
                    fmt);
    const FpValue b(gen.rng()() & (fmt.frac_mask() | fmt.sign_mask()), fmt);
    const FpValue c = gen.uniform_bits();
    FpEnv env = FpEnv::ieee();
    const FpValue ref = fp::fma(a, b, c, env);
    const UnitOutput out = unit.evaluate({a.bits, b.bits, false, c.bits});
    ASSERT_EQ(out.result, canonical(ref))
        << to_string(a) << "*" << to_string(b) << "+" << to_string(c);
    ASSERT_EQ(out.flags, env.flags);
  }
}

TEST(IeeeMode, PaperModeUnaffected) {
  // Regression guard: the default (paper) chains must not change.
  UnitConfig cfg;
  cfg.stages = 8;
  const FpUnit u(UnitKind::kAdder, FpFormat::binary32(), cfg);
  fp::FpEnv env = fp::FpEnv::paper();
  const FpValue a = fp::from_double(1.5, FpFormat::binary32(), env);
  const FpValue b = fp::from_double(0.25, FpFormat::binary32(), env);
  const FpValue ref = fp::add(a, b, env);
  EXPECT_EQ(u.evaluate({a.bits, b.bits, false}).result, ref.bits);
}

}  // namespace
}  // namespace flopsim::units
