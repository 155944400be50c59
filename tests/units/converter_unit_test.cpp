// FormatConverter: bit-exact with fp::convert under the paper policy for
// every format pair and pipeline depth.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fp/ops.hpp"
#include "units/converter_unit.hpp"
#include "../fp/test_util.hpp"

namespace flopsim::units {
namespace {

using fp::FpEnv;
using fp::FpFormat;
using fp::FpValue;
using fp::testing::ValueGen;

struct CvtCase {
  FpFormat src;
  FpFormat dst;
  // Seeds the pair's operand draws; each test adds its own offset. The
  // case holds no pointer and no padding: gtest prints its raw bytes into
  // each test name, which would otherwise differ per process.
  std::uint64_t seed = 0xc070;
};

/// "b32", "bf16": a format's short name in the test names.
std::string tag(FpFormat fmt) {
  return fmt == FpFormat::bfloat16() ? "bf16"
                                     : "b" + std::to_string(fmt.total_bits());
}

class ConverterExactnessTest : public ::testing::TestWithParam<CvtCase> {};

TEST_P(ConverterExactnessTest, CombinationalMatchesSoftfloat) {
  const CvtCase pc = GetParam();
  UnitConfig cfg;
  const FormatConverter cvt(pc.src, pc.dst, cfg);
  ValueGen gen(pc.src, pc.seed + 1);
  for (int i = 0; i < 60000; ++i) {
    const FpValue a = gen.uniform_bits();
    FpEnv env = FpEnv::paper();
    const FpValue ref = fp::convert(a, pc.dst, env);
    const FormatConverter::Output out = cvt.evaluate(a.bits);
    ASSERT_EQ(out.result, ref.bits)
        << to_string(a) << " -> " << to_string(ref);
    ASSERT_EQ(out.flags, env.flags) << to_string(a);
  }
}

TEST_P(ConverterExactnessTest, TruncationModeMatches) {
  const CvtCase pc = GetParam();
  UnitConfig cfg;
  cfg.rounding = fp::RoundingMode::kTowardZero;
  const FormatConverter cvt(pc.src, pc.dst, cfg);
  ValueGen gen(pc.src, pc.seed + 2);
  for (int i = 0; i < 30000; ++i) {
    const FpValue a = gen.uniform_bits();
    FpEnv env = FpEnv::paper(fp::RoundingMode::kTowardZero);
    const FpValue ref = fp::convert(a, pc.dst, env);
    const FormatConverter::Output out = cvt.evaluate(a.bits);
    ASSERT_EQ(out.result, ref.bits) << to_string(a);
  }
}

TEST_P(ConverterExactnessTest, EveryPipelineDepthSameBits) {
  const CvtCase pc = GetParam();
  UnitConfig base;
  const FormatConverter combinational(pc.src, pc.dst, base);
  const int max_depth = combinational.max_stages();
  ValueGen gen(pc.src, pc.seed + 3);
  std::vector<fp::u64> vectors;
  for (int i = 0; i < 400; ++i) vectors.push_back(gen.uniform_bits().bits);
  for (int depth : {1, 2, max_depth}) {
    UnitConfig cfg = base;
    cfg.stages = depth;
    FormatConverter cvt(pc.src, pc.dst, cfg);
    std::size_t received = 0;
    for (std::size_t i = 0; i < vectors.size() + cvt.latency(); ++i) {
      cvt.step(i < vectors.size() ? std::optional<fp::u64>(vectors[i])
                                  : std::nullopt);
      if (const auto out = cvt.output()) {
        const auto ref = combinational.evaluate(vectors[received]);
        ASSERT_EQ(out->result, ref.result) << "depth=" << depth;
        ASSERT_EQ(out->flags, ref.flags) << "depth=" << depth;
        ++received;
      }
    }
    ASSERT_EQ(received, vectors.size()) << "depth=" << depth;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, ConverterExactnessTest,
    ::testing::Values(
        CvtCase{FpFormat::binary32(), FpFormat::binary64()},
        CvtCase{FpFormat::binary64(), FpFormat::binary32()},
        CvtCase{FpFormat::binary48(), FpFormat::binary64()},
        CvtCase{FpFormat::binary64(), FpFormat::binary48()},
        CvtCase{FpFormat::binary32(), FpFormat::binary48()},
        CvtCase{FpFormat::binary48(), FpFormat::binary32()},
        CvtCase{FpFormat::bfloat16(), FpFormat::binary32()},
        CvtCase{FpFormat::binary32(), FpFormat::binary16()}),
    [](const ::testing::TestParamInfo<CvtCase>& info) {
      return tag(info.param.src) + "_to_" + tag(info.param.dst);
    });

TEST(Converter, WideningIsShallowAndCheap) {
  UnitConfig cfg;
  const FormatConverter widen(FpFormat::binary32(), FpFormat::binary64(),
                              cfg);
  const FormatConverter narrow(FpFormat::binary64(), FpFormat::binary32(),
                               cfg);
  // Widening has no rounding chain: fewer pieces, fewer slices.
  EXPECT_LT(widen.max_stages(), narrow.max_stages());
  EXPECT_LT(widen.area().total.slices, narrow.area().total.slices);
  // The interface module must not become the system bottleneck: full-depth
  // conversion keeps pace with the deeply pipelined arithmetic cores.
  UnitConfig deep;
  deep.stages = 99;
  EXPECT_GT(FormatConverter(FpFormat::binary64(), FpFormat::binary32(), deep)
                .freq_mhz(),
            195.0);
}

TEST(Converter, NameDescribes) {
  UnitConfig cfg;
  cfg.stages = 2;
  const FormatConverter cvt(FpFormat::binary48(), FpFormat::binary32(), cfg);
  EXPECT_EQ(cvt.name(), "fp_cvt<binary48->binary32>/s2");
}

}  // namespace
}  // namespace flopsim::units
