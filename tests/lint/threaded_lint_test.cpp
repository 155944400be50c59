// The probe's lane access log is thread-local: lints running at once on
// the exec pool must each see only their own chain's accesses, so every
// report equals the one a serial lint gives.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/parallel.hpp"
#include "lint/lint.hpp"
#include "lint/report.hpp"
#include "units/fp_unit.hpp"
#include "fixtures.hpp"

namespace flopsim::lint {
namespace {

/// Subject i's report as JSONL, notes included. Subject 0 is the toy
/// chain with out-of-range accesses (DL103), so a log that leaked across
/// threads would add findings to a unit or take them from the toy.
std::string lint_subject(std::size_t i) {
  std::ostringstream os;
  if (i == 0) {
    rtl::PieceChain chain = testing::toy_chain();
    chain[1].eval = [](rtl::SignalSet& s) {
      s[3] = s[2] ^ (s[2] >> 7);
      volatile int past = rtl::kMaxSignals + 3;  // out of range on purpose
      volatile int before = -2;
      s[past] = s[before];
    };
    write_jsonl(os, lint_chain(chain, testing::toy_contract()), true);
    return os.str();
  }
  static constexpr units::UnitKind kKinds[] = {
      units::UnitKind::kAdder, units::UnitKind::kMultiplier,
      units::UnitKind::kDivider, units::UnitKind::kSqrt,
      units::UnitKind::kMac};
  units::UnitConfig cfg;
  cfg.stages = i % 2 == 0 ? 1 : 4;
  const units::FpUnit unit(kKinds[(i - 1) % 5], fp::FpFormat::binary32(), cfg);
  Options opts;
  opts.vectors = 8;
  write_jsonl(os, lint_unit(unit, opts), true);
  return os.str();
}

TEST(LintThreads, ConcurrentLintsReportAsSerial) {
  constexpr std::size_t kSubjects = 11;
  std::vector<std::string> serial(kSubjects);
  for (std::size_t i = 0; i < kSubjects; ++i) serial[i] = lint_subject(i);
  ASSERT_NE(serial[0].find("DL103"), std::string::npos) << serial[0];

  std::vector<std::string> threaded(kSubjects);
  exec::GridOptions one_each;
  one_each.chunk = 1;
  exec::parallel_for_grid(
      kSubjects, 4,
      [&](int /*worker*/, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          threaded[i] = lint_subject(i);
        }
      },
      one_each);
  for (std::size_t i = 0; i < kSubjects; ++i) {
    EXPECT_EQ(threaded[i], serial[i]) << "subject " << i;
  }
}

}  // namespace
}  // namespace flopsim::lint
