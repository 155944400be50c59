// Linear-array matmul: bit-exactness against the softfloat reference,
// cycle counts, padding, and the hazard window.
#include "kernel/matmul.hpp"

#include <gtest/gtest.h>

#include <random>

#include "fp/ops.hpp"
#include "kernel/schedule.hpp"

namespace flopsim::kernel {
namespace {

PeConfig fast_cfg(fp::FpFormat fmt = fp::FpFormat::binary32()) {
  PeConfig c;
  c.fmt = fmt;
  c.adder_stages = 4;
  c.mult_stages = 3;
  return c;
}

Matrix random_matrix(int n, fp::FpFormat fmt, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n) * n);
  for (double& x : v) {
    x = (static_cast<double>(rng() % 4000) - 2000.0) / 64.0;
  }
  return matrix_from_doubles(v, n, fmt);
}

TEST(Schedule, PaddingRules) {
  const Schedule s1 = make_schedule(30, 19);
  EXPECT_EQ(s1.n_eff, 30);
  EXPECT_EQ(s1.padded_issues_per_pe(), 0);
  EXPECT_DOUBLE_EQ(s1.padding_fraction(), 0.0);

  const Schedule s2 = make_schedule(10, 25);
  EXPECT_EQ(s2.n_eff, 25);
  EXPECT_EQ(s2.issues_per_pe(), 250);
  EXPECT_EQ(s2.padded_issues_per_pe(), 150);
  EXPECT_DOUBLE_EQ(s2.padding_fraction(), 0.6);
}

TEST(Schedule, TotalCyclesFormula) {
  const Schedule s = make_schedule(8, 7);
  // n*n_eff + skew + drain: 8*8 + 7 + 7 + 1.
  EXPECT_EQ(s.total_cycles(), 64 + 7 + 8);
}

TEST(Schedule, Validation) {
  EXPECT_THROW(make_schedule(0, 5), std::invalid_argument);
  EXPECT_THROW(make_schedule(4, -1), std::invalid_argument);
}

struct MatmulCase {
  int n;
  fp::FpFormat fmt;
  // Held inline, not as a pointer, and filling the case to its last
  // byte: gtest prints the case's raw bytes into each test name, and a
  // pointer or padding would make the names differ per process.
  char name[12];
};

class MatmulExactnessTest : public ::testing::TestWithParam<MatmulCase> {};

TEST_P(MatmulExactnessTest, BitExactAgainstReference) {
  const auto [n, fmt, name] = GetParam();
  const PeConfig cfg = fast_cfg(fmt);
  LinearArrayMatmul array(n, cfg);
  const Matrix a = random_matrix(n, fmt, 100 + n);
  const Matrix b = random_matrix(n, fmt, 200 + n);
  const MatmulRun run = array.run(a, b);
  const Matrix ref = reference_gemm(a, b, fmt, cfg.rounding);
  ASSERT_EQ(run.c.bits, ref.bits);
  EXPECT_EQ(run.hazards, 0);
}

TEST_P(MatmulExactnessTest, CycleCountMatchesSchedule) {
  const auto [n, fmt, name] = GetParam();
  const PeConfig cfg = fast_cfg(fmt);
  LinearArrayMatmul array(n, cfg);
  const Matrix a = random_matrix(n, fmt, 1);
  const Matrix b = random_matrix(n, fmt, 2);
  const MatmulRun run = array.run(a, b);
  EXPECT_EQ(run.cycles, run.schedule.total_cycles());
  EXPECT_EQ(run.mac_issues, static_cast<long>(n) * run.schedule.issues_per_pe());
  EXPECT_EQ(run.padded_issues,
            static_cast<long>(n) * run.schedule.padded_issues_per_pe());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MatmulExactnessTest,
    ::testing::Values(MatmulCase{1, fp::FpFormat::binary32(), "n1_b32"},
                      MatmulCase{2, fp::FpFormat::binary32(), "n2_b32"},
                      MatmulCase{3, fp::FpFormat::binary32(), "n3_b32"},
                      MatmulCase{5, fp::FpFormat::binary32(), "n5_pad_b32"},
                      MatmulCase{8, fp::FpFormat::binary32(), "n8_b32"},
                      MatmulCase{13, fp::FpFormat::binary32(), "n13_b32"},
                      MatmulCase{16, fp::FpFormat::binary32(), "n16_b32"},
                      MatmulCase{8, fp::FpFormat::binary64(), "n8_b64"},
                      MatmulCase{12, fp::FpFormat::binary48(), "n12_b48"}),
    [](const ::testing::TestParamInfo<MatmulCase>& info) {
      return info.param.name;
    });

TEST(Matmul, SmallProblemIsPaddedAndStillExact) {
  // n = 3 < PL = 7: the schedule zero-pads and correctness must survive.
  const PeConfig cfg = fast_cfg();
  LinearArrayMatmul array(3, cfg);
  const Matrix a = random_matrix(3, cfg.fmt, 7);
  const Matrix b = random_matrix(3, cfg.fmt, 8);
  const MatmulRun run = array.run(a, b);
  EXPECT_GT(run.padded_issues, 0);
  EXPECT_EQ(run.c.bits, reference_gemm(a, b, cfg.fmt, cfg.rounding).bits);
}

TEST(Matmul, AccumulatorPreloadChains) {
  const PeConfig cfg = fast_cfg();
  const int n = 6;
  LinearArrayMatmul array(n, cfg);
  const Matrix a = random_matrix(n, cfg.fmt, 9);
  const Matrix b = random_matrix(n, cfg.fmt, 10);
  const Matrix c0 = random_matrix(n, cfg.fmt, 11);
  const MatmulRun run = array.run(a, b, &c0);
  const Matrix ref = reference_gemm(a, b, cfg.fmt, cfg.rounding, &c0);
  EXPECT_EQ(run.c.bits, ref.bits);
}

TEST(Matmul, HazardsAppearWhenPaddingDisabled) {
  // Forcing n_eff = n below the adder latency must produce RAW hazards —
  // the paper's motivation for zero padding.
  const PeConfig cfg = fast_cfg();  // La = 4
  const int n = 3;                  // n <= La: unsafe
  LinearArrayMatmul array(n, cfg);
  array.set_pad_threshold(0);
  const Matrix a = random_matrix(n, cfg.fmt, 21);
  const Matrix b = random_matrix(n, cfg.fmt, 22);
  const MatmulRun run = array.run(a, b);
  EXPECT_GT(run.hazards, 0);
}

TEST(Matmul, NoHazardAboveAdderLatency) {
  const PeConfig cfg = fast_cfg();  // La = 4
  const int n = 5;                  // n > La: safe even unpadded
  LinearArrayMatmul array(n, cfg);
  array.set_pad_threshold(0);
  const Matrix a = random_matrix(n, cfg.fmt, 23);
  const Matrix b = random_matrix(n, cfg.fmt, 24);
  const MatmulRun run = array.run(a, b);
  EXPECT_EQ(run.hazards, 0);
  EXPECT_EQ(run.c.bits, reference_gemm(a, b, cfg.fmt, cfg.rounding).bits);
}

TEST(Matmul, IdentityTimesMatrix) {
  const PeConfig cfg = fast_cfg();
  const int n = 8;
  Matrix eye = Matrix::zero(n, cfg.fmt);
  for (int i = 0; i < n; ++i) eye.at(i, i) = fp::make_one(cfg.fmt).bits;
  const Matrix b = random_matrix(n, cfg.fmt, 31);
  LinearArrayMatmul array(n, cfg);
  const MatmulRun run = array.run(eye, b);
  EXPECT_EQ(run.c.bits, b.bits);
}

TEST(Matmul, FlagsSurfaceOverflow) {
  const PeConfig cfg = fast_cfg();
  const int n = 8;
  Matrix a = Matrix::zero(n, cfg.fmt);
  Matrix b = Matrix::zero(n, cfg.fmt);
  const fp::u64 huge = fp::make_max_finite(cfg.fmt).bits;
  for (int i = 0; i < n; ++i) {
    a.at(0, i) = huge;
    b.at(i, 0) = huge;
  }
  LinearArrayMatmul array(n, cfg);
  const MatmulRun run = array.run(a, b);
  EXPECT_TRUE((run.flags & fp::kFlagOverflow) != 0);
}

TEST(Matmul, SizeMismatchThrows) {
  const PeConfig cfg = fast_cfg();
  LinearArrayMatmul array(4, cfg);
  const Matrix a = random_matrix(4, cfg.fmt, 1);
  const Matrix b = random_matrix(5, cfg.fmt, 2);
  EXPECT_THROW(array.run(a, b), std::invalid_argument);
}

TEST(Matmul, MatrixFromDoublesValidates) {
  EXPECT_THROW(matrix_from_doubles({1.0, 2.0, 3.0}, 2, fp::FpFormat::binary32()),
               std::invalid_argument);
}

}  // namespace
}  // namespace flopsim::kernel
