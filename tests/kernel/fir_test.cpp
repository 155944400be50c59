// Transposed-form FIR kernel: exactness, throughput, skew-FIFO behaviour.
#include "kernel/fir.hpp"

#include <gtest/gtest.h>

#include <random>

#include "fp/ops.hpp"

namespace flopsim::kernel {
namespace {

PeConfig cfg_with(int add_stages, int mult_stages) {
  PeConfig c;
  c.adder_stages = add_stages;
  c.mult_stages = mult_stages;
  return c;
}

std::vector<fp::u64> from_doubles(const std::vector<double>& v,
                                  fp::FpFormat fmt) {
  fp::FpEnv env = fp::FpEnv::paper();
  std::vector<fp::u64> out;
  out.reserve(v.size());
  for (double d : v) out.push_back(fp::from_double(d, fmt, env).bits);
  return out;
}

std::vector<fp::u64> random_stream(int n, fp::FpFormat fmt,
                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& d : v) d = (static_cast<double>(rng() % 512) - 256.0) / 32.0;
  return from_doubles(v, fmt);
}

struct FirCase {
  int taps;
  int add_stages;
  int mult_stages;
  // Held inline, not as a pointer, and filling the case to its last
  // byte: gtest prints the case's raw bytes into each test name, and a
  // pointer or padding would make the names differ per process.
  char name[12];
};

class FirTest : public ::testing::TestWithParam<FirCase> {};

TEST_P(FirTest, BitExactAgainstReference) {
  const auto [taps, sa, sm, name] = GetParam();
  const PeConfig cfg = cfg_with(sa, sm);
  const auto h = random_stream(taps, cfg.fmt, 900 + taps);
  const auto x = random_stream(300, cfg.fmt, 901 + taps);
  FirFilter fir(h, cfg);
  const FirRun run = fir.run(x);
  ASSERT_EQ(run.y, reference_fir(h, x, cfg.fmt, cfg.rounding));
}

TEST_P(FirTest, OneSamplePerCycleThroughput) {
  const auto [taps, sa, sm, name] = GetParam();
  const PeConfig cfg = cfg_with(sa, sm);
  const auto h = random_stream(taps, cfg.fmt, 910);
  const int n = 500;
  const auto x = random_stream(n, cfg.fmt, 911);
  FirFilter fir(h, cfg);
  const FirRun run = fir.run(x);
  // cycles ~ n + steady-state latency (small constant slack for warmup).
  EXPECT_GE(run.cycles, n);
  EXPECT_LE(run.cycles, n + fir.latency() + taps + 4);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FirTest,
    ::testing::Values(FirCase{1, 4, 3, "t1"}, FirCase{2, 4, 3, "t2"},
                      FirCase{5, 4, 3, "t5"}, FirCase{5, 12, 7, "t5_deep"},
                      FirCase{16, 8, 5, "t16"}, FirCase{3, 1, 1, "t3_comb"}),
    [](const ::testing::TestParamInfo<FirCase>& info) {
      return info.param.name;
    });

TEST(Fir, ImpulseResponseIsTaps) {
  const PeConfig cfg = cfg_with(6, 4);
  const auto h = from_doubles({0.5, -1.25, 2.0, 3.5}, cfg.fmt);
  std::vector<fp::u64> x(16, 0);
  x[0] = fp::make_one(cfg.fmt).bits;
  FirFilter fir(h, cfg);
  const FirRun run = fir.run(x);
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_EQ(run.y[i], h[i]) << i;
  }
  for (std::size_t i = h.size(); i < x.size(); ++i) {
    EXPECT_EQ(fp::to_double_exact(fp::FpValue(run.y[i], cfg.fmt)), 0.0) << i;
  }
}

TEST(Fir, MovingAverage) {
  const PeConfig cfg = cfg_with(4, 3);
  const auto h = from_doubles({0.25, 0.25, 0.25, 0.25}, cfg.fmt);
  const auto x = from_doubles(std::vector<double>(32, 8.0), cfg.fmt);
  FirFilter fir(h, cfg);
  const FirRun run = fir.run(x);
  // After warmup the moving average of a constant-8 stream is 8.
  for (std::size_t i = 4; i < run.y.size(); ++i) {
    EXPECT_EQ(fp::to_double_exact(fp::FpValue(run.y[i], cfg.fmt)), 8.0) << i;
  }
}

TEST(Fir, DeepAddersNeedSkewFifos) {
  // The skew grows with adder depth and tap count: the kernel-level area
  // cost of deep pipelining.
  const auto h32 = random_stream(12, fp::FpFormat::binary32(), 33);
  const auto x = random_stream(200, fp::FpFormat::binary32(), 34);
  FirFilter shallow(h32, cfg_with(2, 2));
  FirFilter deep(h32, cfg_with(14, 7));
  const FirRun rs = shallow.run(x);
  const FirRun rd = deep.run(x);
  EXPECT_GT(rd.max_skew_fifo, rs.max_skew_fifo);
  EXPECT_GT(deep.resources().ffs, shallow.resources().ffs);
  EXPECT_GT(deep.freq_mhz(), shallow.freq_mhz());
}

TEST(Fir, LatencyFormulaTracksMeasured) {
  const PeConfig cfg = cfg_with(8, 5);
  const auto h = random_stream(6, cfg.fmt, 44);
  const int n = 400;
  const auto x = random_stream(n, cfg.fmt, 45);
  FirFilter fir(h, cfg);
  const FirRun run = fir.run(x);
  // Last output at ~ (n-1) + latency.
  EXPECT_NEAR(static_cast<double>(run.cycles - n), fir.latency(), 6.0);
}

TEST(Fir, NoTapsThrows) {
  EXPECT_THROW(FirFilter({}, cfg_with(4, 3)), std::invalid_argument);
}

}  // namespace
}  // namespace flopsim::kernel
