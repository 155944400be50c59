// Configuration-memory upset model: persistent stuck-until-repair faults,
// deterministic CRAM campaigns, the CampaignSpec unification contract, and
// the essential-bit / scrub-window arithmetic.
#include <gtest/gtest.h>

#include <vector>

#include "fault/campaign.hpp"
#include "fault/cram.hpp"

namespace flopsim::fault {
namespace {

// A kConfig fault forces `stuck` under `mask` on every latch edge in
// [cycle, repair_cycle) and nothing outside that window.
TEST(Cram, ConfigFaultPersistsUntilRepair) {
  Fault f;
  f.cycle = 2;
  f.site = FaultSite::kConfig;
  f.index = 0;
  f.lane = 1;
  f.bit = 4;
  f.mask = 0x30;
  f.stuck = 0x10;
  f.repair_cycle = 5;
  FaultInjector injector({f});

  rtl::SignalSet latch;
  latch[1] = 0xFF;
  injector.on_latch(1, 0, latch);
  EXPECT_EQ(latch[1], 0xFFu) << "before the strike";

  injector.on_latch(2, 0, latch);
  EXPECT_EQ(latch[1], 0xDFu) << "strike edge: bits 5:4 forced to 01";
  ASSERT_EQ(injector.applied().size(), 1u);
  EXPECT_EQ(injector.applied()[0].before, 0xFFu);

  latch[1] = 0xFF;  // downstream logic rewrites the lane...
  injector.on_latch(3, 0, latch);
  EXPECT_EQ(latch[1], 0xDFu) << "...but the rewired logic forces it again";
  EXPECT_EQ(injector.applied().size(), 1u) << "logged once, not per cycle";

  latch[1] = 0xFF;
  injector.on_latch(5, 0, latch);
  EXPECT_EQ(latch[1], 0xFFu) << "scrubbed back at the repair edge";
  injector.on_latch(6, 0, latch);
  EXPECT_EQ(latch[1], 0xFFu);

  // Wrong stage is never touched.
  latch[1] = 0xAB;
  injector.on_latch(3, 1, latch);
  EXPECT_EQ(latch[1], 0xABu);
}

TEST(Cram, ConfigFaultValidation) {
  Fault f;
  f.site = FaultSite::kConfig;
  f.lane = 0;
  f.mask = 0;  // a config upset must drive at least one bit
  EXPECT_THROW(FaultInjector({f}), std::invalid_argument);
  f.mask = 1;
  f.lane = kValidLane;  // data lanes only
  EXPECT_THROW(FaultInjector({f}), std::invalid_argument);
}

LatchProfile adder_profile(std::uint64_t seed) {
  units::UnitConfig cfg;
  cfg.stages = 4;
  units::FpUnit unit(units::UnitKind::kAdder, fp::FpFormat::binary32(), cfg);
  return profile_unit_latches(unit, 16, seed);
}

CampaignSpec cram_spec(const LatchProfile& profile, long horizon, int count,
                       std::uint64_t seed, long scrub_period_cycles = 0) {
  CampaignSpec spec;
  spec.source = CampaignSpec::Source::kCram;
  spec.profile = &profile;
  spec.horizon = horizon;
  spec.count = count;
  spec.seed = seed;
  spec.scrub_period_cycles = scrub_period_cycles;
  return spec;
}

TEST(Cram, CramCampaignIsDeterministicAndWellFormed) {
  const LatchProfile profile = adder_profile(7);
  const FaultCampaign a = FaultCampaign::make(cram_spec(profile, 100, 12, 42, 16));
  const FaultCampaign b = FaultCampaign::make(cram_spec(profile, 100, 12, 42, 16));
  ASSERT_EQ(a.size(), 12u);
  EXPECT_EQ(a.faults(), b.faults());

  for (const Fault& f : a.faults()) {
    EXPECT_EQ(f.site, FaultSite::kConfig);
    EXPECT_GE(f.cycle, 0);
    EXPECT_LT(f.cycle, 100);
    EXPECT_NE(f.mask, 0u);
    EXPECT_EQ(f.stuck & ~f.mask, 0u) << "stuck value confined to the mask";
    EXPECT_NE(f.mask & (fp::u64{1} << f.bit), 0u)
        << "the struck bit itself is driven";
    // Repair lands on the first 16-cycle scrub boundary after the strike.
    EXPECT_EQ(f.repair_cycle, (f.cycle / 16 + 1) * 16);
    EXPECT_GT(f.repair_cycle, f.cycle);
  }

  // No scrub period: the upset persists for the whole mission.
  const FaultCampaign never = FaultCampaign::make(cram_spec(profile, 100, 4, 42));
  for (const Fault& f : never.faults()) EXPECT_EQ(f.repair_cycle, -1);

  // Different seeds draw different campaigns.
  const FaultCampaign c = FaultCampaign::make(cram_spec(profile, 100, 12, 43, 16));
  EXPECT_NE(a.faults(), c.faults());
}

// The unified CampaignSpec constructor must reproduce every legacy factory
// draw-for-draw. Comparing against the deprecated factories is this test's
// whole point, so the deprecation warnings are silenced here — and only
// here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
TEST(Cram, CampaignSpecReproducesLegacyFactories) {
  const LatchProfile profile = adder_profile(9);

  CampaignSpec spec;
  spec.source = CampaignSpec::Source::kRandom;
  spec.profile = &profile;
  spec.horizon = 200;
  spec.count = 10;
  spec.seed = 77;
  EXPECT_EQ(FaultCampaign::make(spec).faults(),
            FaultCampaign::random(profile, 200, 10, 77).faults());

  spec.source = CampaignSpec::Source::kPoisson;
  spec.rate = 1e-4;
  EXPECT_EQ(FaultCampaign::make(spec).faults(),
            FaultCampaign::poisson(profile, 200, 1e-4, 77).faults());

  spec.source = CampaignSpec::Source::kAccumulator;
  spec.rows = 8;
  spec.word_bits = 32;
  EXPECT_EQ(
      FaultCampaign::make(spec).faults(),
      FaultCampaign::random_accumulator(8, 32, 200, 10, 77).faults());

  spec.source = CampaignSpec::Source::kCram;
  spec.scrub_period_cycles = 32;
  EXPECT_EQ(FaultCampaign::make(spec).faults(),
            FaultCampaign::cram(profile, 200, 10, 77, 32).faults());

  spec.source = CampaignSpec::Source::kList;
  spec.faults = FaultCampaign::cram(profile, 200, 10, 77, 32).faults();
  EXPECT_EQ(FaultCampaign::make(spec).faults(), spec.faults);

  // Sources that sample a profile refuse to run without one.
  CampaignSpec missing;
  missing.source = CampaignSpec::Source::kRandom;
  missing.horizon = 10;
  missing.count = 1;
  EXPECT_THROW(FaultCampaign::make(missing), std::invalid_argument);

  // Accumulator campaigns may now reach the SECDED check byte (72 bits)
  // but nothing beyond it.
  CampaignSpec acc;
  acc.source = CampaignSpec::Source::kAccumulator;
  acc.rows = 4;
  acc.word_bits = 72;
  acc.horizon = 10;
  acc.count = 64;
  acc.seed = 3;
  bool check_byte_hit = false;
  const FaultCampaign acc_campaign = FaultCampaign::make(acc);
  for (const Fault& f : acc_campaign.faults()) {
    EXPECT_LT(f.bit, 72);
    check_byte_hit |= f.bit >= 64;
  }
  EXPECT_TRUE(check_byte_hit);
  acc.word_bits = 73;
  EXPECT_THROW(FaultCampaign::make(acc), std::invalid_argument);
}
#pragma GCC diagnostic pop

TEST(Cram, EssentialBitsScaleWithFootprint) {
  const CramModel model;
  device::Resources r;
  EXPECT_EQ(model.essential_bits(r), 0.0);

  r.slices = 100;
  const double slices_only = model.essential_bits(r);
  EXPECT_GT(slices_only, 0.0);

  r.bmults = 4;
  r.brams = 2;
  const double with_blocks = model.essential_bits(r);
  EXPECT_GT(with_blocks, slices_only);

  device::Resources big = r;
  big.slices = 200;
  EXPECT_GT(model.essential_bits(big), with_blocks);
  EXPECT_NEAR(model.essential_mbit(r), model.essential_bits(r) / 1e6, 1e-12);

  // Fully-essential counting is proportionally larger.
  CramModel all = model;
  all.essential_fraction = 1.0;
  EXPECT_NEAR(all.essential_bits(r),
              model.essential_bits(r) / model.essential_fraction, 1e-9);
}

TEST(Cram, ScrubWindowBoundsExposure) {
  ScrubModel off;
  EXPECT_FALSE(off.enabled());
  EXPECT_DOUBLE_EQ(off.mean_exposure_s(3600.0), 1800.0);

  ScrubModel fast;
  fast.period_s = 0.01;
  EXPECT_TRUE(fast.enabled());
  EXPECT_DOUBLE_EQ(fast.mean_exposure_s(3600.0), 0.005);

  // Shorter scrub periods monotonically shrink the observe probability.
  double prev = 1.1;
  for (const double period : {0.0, 1.0, 0.1, 0.01, 1e-3}) {
    ScrubModel m;
    m.period_s = period;
    m.duty = 0.1;
    const double p = m.observe_probability(3600.0);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    EXPECT_LT(p, prev + 1e-12);
    prev = p;
  }
  ScrubModel idle;
  idle.period_s = 0.01;
  idle.duty = 0.0;  // kernel never runs: upsets can never be observed
  EXPECT_DOUBLE_EQ(idle.observe_probability(3600.0), 0.0);
}

}  // namespace
}  // namespace flopsim::fault
