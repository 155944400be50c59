// LU decomposition kernel: exactness vs. the softfloat reference, solve
// accuracy, pivot handling.
#include "kernel/lu.hpp"

#include <gtest/gtest.h>

#include <random>

#include "fp/ops.hpp"

namespace flopsim::kernel {
namespace {

PeConfig fast_cfg() {
  PeConfig c;
  c.adder_stages = 4;
  c.mult_stages = 3;
  return c;
}

/// Diagonally dominant matrix: LU without pivoting stays well-conditioned.
Matrix dd_matrix(int n, fp::FpFormat fmt, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n) * n);
  for (int i = 0; i < n; ++i) {
    double rowsum = 0.0;
    for (int j = 0; j < n; ++j) {
      const double x = (static_cast<double>(rng() % 512) - 256.0) / 64.0;
      v[static_cast<std::size_t>(i) * n + j] = x;
      rowsum += std::abs(x);
    }
    v[static_cast<std::size_t>(i) * n + i] = rowsum + 1.0;
  }
  return matrix_from_doubles(v, n, fmt);
}

struct LuCase {
  int n;
  int p;
  // Held inline, not as a pointer: gtest prints the case's raw bytes into
  // each test name, and a pointer would make the names differ per process.
  char name[8];
};

class LuTest : public ::testing::TestWithParam<LuCase> {};

TEST_P(LuTest, FactorsBitExactAgainstReference) {
  const auto [n, p, name] = GetParam();
  const PeConfig cfg = fast_cfg();
  LuArray array(n, p, cfg);
  const Matrix a = dd_matrix(n, cfg.fmt, 500 + n);
  const LuRun run = array.run(a);
  const Matrix ref = reference_lu(a, cfg.fmt, cfg.rounding);
  ASSERT_EQ(run.lu.bits, ref.bits);
  EXPECT_EQ(run.hazards, 0);
  EXPECT_GT(run.cycles, 0);
  EXPECT_EQ(run.divides, static_cast<long>(n) * (n - 1) / 2);
}

TEST_P(LuTest, SolveRecoversKnownSolution) {
  const auto [n, p, name] = GetParam();
  const PeConfig cfg = fast_cfg();
  LuArray array(n, p, cfg);
  const Matrix a = dd_matrix(n, cfg.fmt, 600 + n);
  // b = A * ones  =>  x should be ~ones.
  fp::FpEnv env = fp::FpEnv::paper();
  std::vector<fp::u64> b(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    fp::FpValue acc = fp::make_zero(cfg.fmt);
    for (int j = 0; j < n; ++j) {
      acc = fp::add(acc, fp::FpValue(a.at(i, j), cfg.fmt), env);
    }
    b[static_cast<std::size_t>(i)] = acc.bits;
  }
  const LuRun run = array.run(a);
  const auto x = lu_solve(run.lu, b, cfg.fmt, cfg.rounding);
  for (int i = 0; i < n; ++i) {
    const double xi =
        fp::to_double_exact(fp::FpValue(x[static_cast<std::size_t>(i)],
                                        cfg.fmt));
    EXPECT_NEAR(xi, 1.0, 1e-3) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LuTest,
    ::testing::Values(LuCase{2, 1, "n2_p1"}, LuCase{4, 2, "n4_p2"},
                      LuCase{8, 4, "n8_p4"}, LuCase{8, 8, "n8_p8"},
                      LuCase{12, 5, "n12_p5"}, LuCase{16, 4, "n16_p4"}),
    [](const ::testing::TestParamInfo<LuCase>& info) {
      return info.param.name;
    });

TEST(Lu, ZeroPivotThrows) {
  const PeConfig cfg = fast_cfg();
  Matrix a = Matrix::zero(4, cfg.fmt);  // all-zero: first pivot is 0
  LuArray array(4, 2, cfg);
  EXPECT_THROW(array.run(a), std::domain_error);
  EXPECT_THROW(reference_lu(a, cfg.fmt, cfg.rounding), std::domain_error);
}

TEST(Lu, IdentityFactorsToItself) {
  const PeConfig cfg = fast_cfg();
  const int n = 6;
  Matrix eye = Matrix::zero(n, cfg.fmt);
  for (int i = 0; i < n; ++i) eye.at(i, i) = fp::make_one(cfg.fmt).bits;
  LuArray array(n, 3, cfg);
  const LuRun run = array.run(eye);
  EXPECT_EQ(run.lu.bits, eye.bits);
  EXPECT_GE(run.macs, 0);
}

TEST(Lu, MorePEsFewerCycles) {
  const PeConfig cfg = fast_cfg();
  const int n = 24;
  const Matrix a = dd_matrix(n, cfg.fmt, 700);
  LuArray a1(n, 1, cfg);
  LuArray a8(n, 8, cfg);
  const LuRun r1 = a1.run(a);
  const LuRun r8 = a8.run(a);
  EXPECT_EQ(r1.lu.bits, r8.lu.bits);  // parallelism never changes values
  EXPECT_GT(r1.cycles, 2 * r8.cycles);
}

TEST(Lu, ReconstructionWithinTolerance) {
  // L*U ~ A in double arithmetic (binary32 factors): sanity that the
  // factorization is numerically meaningful, not just self-consistent.
  const PeConfig cfg = fast_cfg();
  const int n = 10;
  const Matrix a = dd_matrix(n, cfg.fmt, 800);
  LuArray array(n, 2, cfg);
  const LuRun run = array.run(a);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double sum = 0.0;
      for (int k = 0; k <= std::min(i, j); ++k) {
        const double l =
            k == i ? 1.0
                   : fp::to_double_exact(fp::FpValue(run.lu.at(i, k), cfg.fmt));
        const double u =
            fp::to_double_exact(fp::FpValue(run.lu.at(k, j), cfg.fmt));
        sum += l * u;
      }
      const double aij = fp::to_double_exact(fp::FpValue(a.at(i, j), cfg.fmt));
      EXPECT_NEAR(sum, aij, std::max(1.0, std::abs(aij)) * 1e-4)
          << i << "," << j;
    }
  }
}

TEST(Lu, Validation) {
  const PeConfig cfg = fast_cfg();
  EXPECT_THROW(LuArray(4, 5, cfg), std::invalid_argument);
  EXPECT_THROW(LuArray(0, 1, cfg), std::invalid_argument);
  LuArray array(4, 2, cfg);
  EXPECT_THROW(array.run(Matrix::zero(5, cfg.fmt)), std::invalid_argument);
}

}  // namespace
}  // namespace flopsim::kernel
