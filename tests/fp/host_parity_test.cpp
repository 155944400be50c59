// Bit-exact parity of the softfloat core against host IEEE-754 hardware for
// binary32 and binary64 under round-to-nearest-even, across uniform random
// bit patterns (which include subnormals, infinities, and NaNs) and
// exponent-correlated pairs (cancellation / alignment stress).
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "test_util.hpp"

namespace flopsim::fp {
namespace {

using testing::BitsMatchHost;
using testing::ValueGen;
using testing::as_double;
using testing::as_float;

enum class Op { kAdd, kSub, kMul, kDiv, kSqrt };

struct ParityCase {
  Op op;
  bool is64;
  const char* name;
};

// gtest prints each parameter into the test's display name; without this
// it dumps the struct's raw bytes, padding and pointer included, so the
// names would differ from process to process.
void PrintTo(const ParityCase& pc, std::ostream* os) { *os << pc.name; }

class HostParityTest : public ::testing::TestWithParam<ParityCase> {};

FpValue run_ours(Op op, const FpValue& a, const FpValue& b, FpEnv& env) {
  switch (op) {
    case Op::kAdd: return add(a, b, env);
    case Op::kSub: return sub(a, b, env);
    case Op::kMul: return mul(a, b, env);
    case Op::kDiv: return div(a, b, env);
    case Op::kSqrt: return sqrt(a, env);
  }
  std::abort();
}

template <typename T>
T run_host(Op op, T a, T b) {
  switch (op) {
    case Op::kAdd: return a + b;
    case Op::kSub: return a - b;
    case Op::kMul: return a * b;
    case Op::kDiv: return a / b;
    case Op::kSqrt: return std::sqrt(a);
  }
  std::abort();
}

TEST_P(HostParityTest, UniformRandomBits) {
  const ParityCase pc = GetParam();
  const FpFormat fmt = pc.is64 ? FpFormat::binary64() : FpFormat::binary32();
  ValueGen gen(fmt, 0x5eed0001 + static_cast<int>(pc.op));
  constexpr int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) {
    const FpValue a = gen.uniform_bits();
    const FpValue b = gen.uniform_bits();
    FpEnv env = FpEnv::ieee();
    const FpValue r = run_ours(pc.op, a, b, env);
    if (pc.is64) {
      const double host = run_host(pc.op, as_double(a), as_double(b));
      ASSERT_TRUE(BitsMatchHost(r, host))
          << "op=" << pc.name << " a=" << to_string(a) << " b=" << to_string(b);
    } else {
      const float host = run_host(pc.op, as_float(a), as_float(b));
      ASSERT_TRUE(BitsMatchHost(r, host))
          << "op=" << pc.name << " a=" << to_string(a) << " b=" << to_string(b);
    }
  }
}

TEST_P(HostParityTest, CorrelatedExponents) {
  const ParityCase pc = GetParam();
  const FpFormat fmt = pc.is64 ? FpFormat::binary64() : FpFormat::binary32();
  ValueGen gen(fmt, 0x5eed1001 + static_cast<int>(pc.op));
  constexpr int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) {
    const auto [a, b] = gen.correlated_pair();
    FpEnv env = FpEnv::ieee();
    const FpValue r = run_ours(pc.op, a, b, env);
    if (pc.is64) {
      const double host = run_host(pc.op, as_double(a), as_double(b));
      ASSERT_TRUE(BitsMatchHost(r, host))
          << "op=" << pc.name << " a=" << to_string(a) << " b=" << to_string(b);
    } else {
      const float host = run_host(pc.op, as_float(a), as_float(b));
      ASSERT_TRUE(BitsMatchHost(r, host))
          << "op=" << pc.name << " a=" << to_string(a) << " b=" << to_string(b);
    }
  }
}

TEST_P(HostParityTest, SpecialsCrossProduct) {
  const ParityCase pc = GetParam();
  const FpFormat fmt = pc.is64 ? FpFormat::binary64() : FpFormat::binary32();
  ValueGen gen(fmt, 1);
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) {
      const FpValue a = gen.special(i);
      const FpValue b = gen.special(j);
      FpEnv env = FpEnv::ieee();
      const FpValue r = run_ours(pc.op, a, b, env);
      if (pc.is64) {
        const double host = run_host(pc.op, as_double(a), as_double(b));
        ASSERT_TRUE(BitsMatchHost(r, host))
            << "op=" << pc.name << " a=" << to_string(a)
            << " b=" << to_string(b);
      } else {
        const float host = run_host(pc.op, as_float(a), as_float(b));
        ASSERT_TRUE(BitsMatchHost(r, host))
            << "op=" << pc.name << " a=" << to_string(a)
            << " b=" << to_string(b);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, HostParityTest,
    ::testing::Values(ParityCase{Op::kAdd, false, "add32"},
                      ParityCase{Op::kSub, false, "sub32"},
                      ParityCase{Op::kMul, false, "mul32"},
                      ParityCase{Op::kDiv, false, "div32"},
                      ParityCase{Op::kSqrt, false, "sqrt32"},
                      ParityCase{Op::kAdd, true, "add64"},
                      ParityCase{Op::kSub, true, "sub64"},
                      ParityCase{Op::kMul, true, "mul64"},
                      ParityCase{Op::kDiv, true, "div64"},
                      ParityCase{Op::kSqrt, true, "sqrt64"}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace flopsim::fp
