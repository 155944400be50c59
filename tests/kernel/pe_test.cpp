// Processing element: MAC semantics, latency, hazards, resources.
#include "kernel/pe.hpp"

#include <gtest/gtest.h>

#include <random>

#include "fp/ops.hpp"

namespace flopsim::kernel {
namespace {

fp::u64 enc(double x, fp::FpFormat fmt = fp::FpFormat::binary32()) {
  fp::FpEnv env = fp::FpEnv::paper();
  return fp::from_double(x, fmt, env).bits;
}

double dec(fp::u64 bits, fp::FpFormat fmt = fp::FpFormat::binary32()) {
  return fp::to_double_exact(fp::FpValue(bits, fmt));
}

PeConfig small_cfg() {
  PeConfig c;
  c.adder_stages = 4;
  c.mult_stages = 3;
  c.storage_rows = 64;
  return c;
}

TEST(Pe, SingleMacWritesBackAfterTotalLatency) {
  ProcessingElement pe(small_cfg());
  ASSERT_EQ(pe.total_latency(), 7);
  pe.step(ProcessingElement::MacIssue{enc(3.0), enc(4.0), 5});
  for (int t = 1; t < pe.total_latency(); ++t) {
    EXPECT_EQ(pe.acc(5), 0u) << "cycle " << t;
    EXPECT_FALSE(pe.drained());
    pe.step(std::nullopt);
  }
  EXPECT_TRUE(pe.drained());
  EXPECT_EQ(dec(pe.acc(5)), 12.0);
}

TEST(Pe, AccumulatesAcrossIssues) {
  ProcessingElement pe(small_cfg());
  // Two MACs to the same row, spaced beyond the hazard window.
  pe.step(ProcessingElement::MacIssue{enc(2.0), enc(3.0), 0});
  for (int t = 0; t < pe.total_latency(); ++t) pe.step(std::nullopt);
  pe.step(ProcessingElement::MacIssue{enc(5.0), enc(1.0), 0});
  for (int t = 0; t < pe.total_latency(); ++t) pe.step(std::nullopt);
  EXPECT_EQ(dec(pe.acc(0)), 11.0);
  EXPECT_EQ(pe.hazards(), 0);
  EXPECT_EQ(pe.mac_issues(), 2);
}

TEST(Pe, FullThroughputDistinctRows) {
  // One MAC per cycle to distinct rows: no hazards, all correct.
  ProcessingElement pe(small_cfg());
  for (int i = 0; i < 32; ++i) {
    pe.step(ProcessingElement::MacIssue{enc(i), enc(2.0), i});
  }
  for (int t = 0; t < pe.total_latency(); ++t) pe.step(std::nullopt);
  EXPECT_TRUE(pe.drained());
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(dec(pe.acc(i)), 2.0 * i) << i;
  }
  EXPECT_EQ(pe.hazards(), 0);
}

TEST(Pe, RawHazardDetectedInsideAdderWindow) {
  // Re-issuing the same row within the adder latency reads stale data.
  PeConfig cfg = small_cfg();
  ProcessingElement pe(cfg);
  pe.step(ProcessingElement::MacIssue{enc(1.0), enc(1.0), 7});
  pe.step(ProcessingElement::MacIssue{enc(1.0), enc(1.0), 7});
  for (int t = 0; t < 2 * pe.total_latency(); ++t) pe.step(std::nullopt);
  EXPECT_GT(pe.hazards(), 0);
  // Stale read: both adds saw acc=0, so the final value is 1, not 2.
  EXPECT_EQ(dec(pe.acc(7)), 1.0);
}

TEST(Pe, HazardWindowBoundaryIsAdderLatency) {
  // The accumulator read happens before the same-cycle writeback, so a
  // revisit spaced exactly La cycles still races; La + 1 is safe.
  PeConfig cfg = small_cfg();
  const int la = cfg.adder_stages;
  for (int spacing : {la, la + 1}) {
    ProcessingElement pe(cfg);
    pe.step(ProcessingElement::MacIssue{enc(1.0), enc(1.0), 3});
    for (int t = 1; t < spacing; ++t) pe.step(std::nullopt);
    pe.step(ProcessingElement::MacIssue{enc(1.0), enc(1.0), 3});
    for (int t = 0; t < 2 * pe.total_latency(); ++t) pe.step(std::nullopt);
    if (spacing == la) {
      EXPECT_GT(pe.hazards(), 0) << "spacing " << spacing;
    } else {
      EXPECT_EQ(pe.hazards(), 0) << "spacing " << spacing;
      EXPECT_EQ(dec(pe.acc(3)), 2.0);
    }
  }
}

TEST(Pe, MatchesSoftfloatMacBitExactly) {
  ProcessingElement pe(small_cfg());
  const fp::FpFormat fmt = fp::FpFormat::binary32();
  fp::FpEnv env = fp::FpEnv::paper();
  fp::FpValue acc = fp::make_zero(fmt);
  std::mt19937_64 rng(11);
  for (int i = 0; i < 50; ++i) {
    const fp::u64 a = rng() & fmt.bits_mask() & ~fmt.exp_mask();  // finite-ish
    const fp::u64 b = rng() & fmt.bits_mask() & ~fmt.exp_mask();
    pe.step(ProcessingElement::MacIssue{a, b, 0});
    while (!pe.drained()) pe.step(std::nullopt);
    acc = fp::add(acc,
                  fp::mul(fp::FpValue(a, fmt), fp::FpValue(b, fmt), env), env);
    ASSERT_EQ(pe.acc(0), acc.bits) << i;
  }
}

TEST(Pe, ClearResetsEverything) {
  ProcessingElement pe(small_cfg());
  pe.step(ProcessingElement::MacIssue{enc(1.0), enc(1.0), 0});
  pe.clear();
  EXPECT_EQ(pe.acc(0), 0u);
  EXPECT_TRUE(pe.drained());
  EXPECT_EQ(pe.mac_issues(), 0);
  for (int t = 0; t < 10; ++t) pe.step(std::nullopt);
  EXPECT_EQ(pe.acc(0), 0u);  // no ghost writeback
}

TEST(Pe, SetAccPreloadsForBlockChaining) {
  ProcessingElement pe(small_cfg());
  pe.set_acc(2, enc(10.0));
  pe.step(ProcessingElement::MacIssue{enc(2.0), enc(3.0), 2});
  while (!pe.drained()) pe.step(std::nullopt);
  EXPECT_EQ(dec(pe.acc(2)), 16.0);
}

TEST(Pe, ResourcesDecompose) {
  ProcessingElement pe(small_cfg());
  const auto total = pe.resources();
  const auto parts = pe.mac_resources() + pe.storage_resources() +
                     pe.control_resources();
  EXPECT_EQ(total, parts);
  EXPECT_EQ(pe.storage_resources().brams, 1);
  EXPECT_GT(pe.mac_resources().slices, pe.control_resources().slices);
  EXPECT_GT(pe.mac_resources().bmults, 0);
}

TEST(Pe, ControlGrowsWithLatency) {
  // The control shift registers track PL — the paper's Misc overhead.
  PeConfig shallow = small_cfg();
  PeConfig deep = small_cfg();
  deep.adder_stages = 16;
  deep.mult_stages = 9;
  EXPECT_GT(ProcessingElement(deep).control_resources().ffs,
            ProcessingElement(shallow).control_resources().ffs);
}

TEST(Pe, FrequencyIsSlowerUnit) {
  ProcessingElement pe(small_cfg());
  EXPECT_DOUBLE_EQ(
      pe.freq_mhz(),
      std::min(pe.adder().freq_mhz(), pe.multiplier().freq_mhz()));
}

TEST(Pe, InvalidRowThrows) {
  ProcessingElement pe(small_cfg());
  EXPECT_THROW(pe.step(ProcessingElement::MacIssue{0, 0, 64}),
               std::out_of_range);
  EXPECT_THROW(pe.step(ProcessingElement::MacIssue{0, 0, -1}),
               std::out_of_range);
}

TEST(Pe, InvalidStorageThrows) {
  PeConfig cfg = small_cfg();
  cfg.storage_rows = 0;
  EXPECT_THROW(ProcessingElement{cfg}, std::invalid_argument);
}

// A state saved mid-run and loaded into another PE continues exactly as
// the original does; a PE with other units refuses it.
TEST(Pe, SavedStateResumesInAnotherPe) {
  ProcessingElement original(small_cfg());
  ProcessingElement resumed(small_cfg());
  constexpr int issues = 40;
  const auto issue_at =
      [](int t) -> std::optional<ProcessingElement::MacIssue> {
    if (t >= issues) return std::nullopt;
    return ProcessingElement::MacIssue{enc(t % 9 + 1), enc(t % 4 + 2), t % 3};
  };
  ProcessingElement::State mid;
  for (int t = 0; t < issues + original.total_latency(); ++t) {
    if (t == 17) mid = original.save(16);
    original.step(issue_at(t));
  }
  resumed.restore(mid);
  EXPECT_TRUE(resumed.matches(mid));
  for (int t = 17; t < issues + resumed.total_latency(); ++t) {
    resumed.step(issue_at(t));
  }
  EXPECT_FALSE(resumed.matches(mid));
  EXPECT_TRUE(resumed.matches(original.save(16)));
  EXPECT_GT(original.hazards(), 0) << "rows revisit inside the window";

  PeConfig fused = small_cfg();
  fused.use_fused_mac = true;
  ProcessingElement other(fused);
  EXPECT_THROW(other.restore(mid), std::invalid_argument);
}

}  // namespace
}  // namespace flopsim::kernel
