// Configuration-memory upset model: persistent stuck-until-repair faults,
// deterministic CRAM campaigns, the CampaignSpec unification contract
// (single-fault draws from the seeded prefix included), and the
// essential-bit / scrub-window arithmetic.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <utility>
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

// A kernel replay walks accumulates one at a time, so the clocks it shows
// an injector need not rise: a config fault acts on every edge in its
// window whatever came before, a repair-clock edge seen first included.
TEST(Cram, ConfigFaultWindowIgnoresTheOrderOfClocks) {
  Fault f;
  f.cycle = 2;
  f.site = FaultSite::kConfig;
  f.lane = 1;
  f.mask = 0x30;
  f.stuck = 0x10;
  f.repair_cycle = 5;
  FaultInjector injector({f});
  for (const long cycle : {6L, 5L, 4L, 1L, 2L, 7L, 3L}) {
    rtl::SignalSet latch;
    latch[1] = 0xFF;
    injector.on_latch(cycle, 0, latch);
    EXPECT_EQ(latch[1], cycle >= 2 && cycle < 5 ? 0xDFu : 0xFFu)
        << "clock " << cycle;
  }
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

CampaignSpec cram_spec(const ProfileSites& sites, long horizon, int count,
                       std::uint64_t seed, long scrub_period_cycles = 0) {
  CampaignSpec spec;
  spec.source = CampaignSpec::Source::kCram;
  spec.sites = &sites;
  spec.horizon = horizon;
  spec.count = count;
  spec.seed = seed;
  spec.scrub_period_cycles = scrub_period_cycles;
  return spec;
}

TEST(Cram, CramCampaignIsDeterministicAndWellFormed) {
  const LatchProfile profile = adder_profile(7);
  const ProfileSites sites(profile);
  const FaultCampaign a = FaultCampaign::make(cram_spec(sites, 100, 12, 42, 16));
  const FaultCampaign b = FaultCampaign::make(cram_spec(sites, 100, 12, 42, 16));
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
  const FaultCampaign never = FaultCampaign::make(cram_spec(sites, 100, 4, 42));
  for (const Fault& f : never.faults()) EXPECT_EQ(f.repair_cycle, -1);

  // Different seeds draw different campaigns.
  const FaultCampaign c = FaultCampaign::make(cram_spec(sites, 100, 12, 43, 16));
  EXPECT_NE(a.faults(), c.faults());
}

// The unified CampaignSpec constructor draws, for each source, exactly
// the fault list the per-source factories it replaced drew for the same
// parameters, pinned here value by value: a changed draw sequence fails.
TEST(Cram, CampaignSpecReproducesLegacyFactories) {
  const LatchProfile profile = adder_profile(9);
  ASSERT_EQ(profile.total_bits(), 590);
  const auto latch = [](long cycle, int stage, int lane, int bit) {
    return Fault{cycle, FaultSite::kStageLatch, stage, lane, bit};
  };

  const ProfileSites sites(profile);
  CampaignSpec spec;
  spec.source = CampaignSpec::Source::kRandom;
  spec.sites = &sites;
  spec.horizon = 200;
  spec.count = 10;
  spec.seed = 77;
  EXPECT_EQ(FaultCampaign::make(spec).faults(),
            (std::vector<Fault>{
                latch(197, 3, 13, 6), latch(23, 1, 5, 10),
                latch(61, 3, 3, 1), latch(114, 3, 5, 18),
                latch(97, 1, 3, 1), latch(130, 0, 1, 21),
                latch(161, 2, 0, 2), latch(96, 1, 9, 16),
                latch(84, 1, 0, 28), latch(173, 0, 5, 24)}));

  spec.source = CampaignSpec::Source::kPoisson;
  spec.rate = 1e-4;
  EXPECT_EQ(FaultCampaign::make(spec).faults(),
            (std::vector<Fault>{
                latch(25, 2, 9, 13), latch(52, 3, 9, 9),
                latch(110, 3, 1, 10), latch(34, 2, 5, 9),
                latch(118, 1, 10, 0), latch(147, 1, 1, 27),
                latch(156, 2, 3, 7), latch(0, 3, 3, 5),
                latch(56, 2, 8, 1), latch(56, 2, 0, 13),
                latch(69, 2, 4, 3), latch(12, 2, 1, 6),
                latch(62, 0, 0, 4), latch(131, 0, 3, 0)}));

  spec.source = CampaignSpec::Source::kAccumulator;
  spec.rows = 8;
  spec.word_bits = 32;
  const auto acc_word = [](long cycle, int row, int bit) {
    return Fault{cycle, FaultSite::kAccumulator, row, 0, bit};
  };
  EXPECT_EQ(FaultCampaign::make(spec).faults(),
            (std::vector<Fault>{
                acc_word(152, 5, 7), acc_word(23, 7, 29), acc_word(97, 2, 31),
                acc_word(97, 7, 26), acc_word(101, 1, 23), acc_word(96, 1, 4),
                acc_word(52, 5, 30), acc_word(66, 2, 28),
                acc_word(118, 6, 11), acc_word(51, 4, 7)}));

  spec.source = CampaignSpec::Source::kCram;
  spec.scrub_period_cycles = 32;
  const std::vector<Fault> cram{
      {197, FaultSite::kConfig, 3, 13, 6, 0xc0, 0x0, 224},
      {87, FaultSite::kConfig, 2, 5, 26, 0x4000000, 0x4000000, 96},
      {114, FaultSite::kConfig, 3, 5, 18, 0xc0000, 0x80000, 128},
      {63, FaultSite::kConfig, 2, 0, 18, 0xc0000, 0xc0000, 64},
      {161, FaultSite::kConfig, 2, 0, 2, 0xc, 0x4, 192},
      {25, FaultSite::kConfig, 2, 9, 13, 0x6000, 0x2000, 32},
      {173, FaultSite::kConfig, 0, 5, 24, 0x3000000, 0x1000000, 192},
      {34, FaultSite::kConfig, 2, 5, 9, 0x600, 0x600, 64},
      {166, FaultSite::kConfig, 2, 1, 7, 0x180, 0x0, 192},
      {156, FaultSite::kConfig, 2, 3, 7, 0x80, 0x80, 160},
  };
  EXPECT_EQ(FaultCampaign::make(spec).faults(), cram);

  spec.source = CampaignSpec::Source::kList;
  spec.faults = cram;
  EXPECT_EQ(FaultCampaign::make(spec).faults(), spec.faults);

  // With the valid and flag pseudo-sites in the sample space: each
  // stage's data bits come first, then its valid bit, then its eight
  // flag bits (lanes -1 and -2). Config upsets still draw data bits only.
  LatchProfile pseudo = adder_profile(9);
  pseudo.include_valid = true;
  pseudo.include_flags = true;
  ASSERT_EQ(pseudo.total_bits(), 626);
  const ProfileSites pseudo_sites(pseudo);
  CampaignSpec with_pseudo;
  with_pseudo.source = CampaignSpec::Source::kRandom;
  with_pseudo.sites = &pseudo_sites;
  with_pseudo.horizon = 200;
  with_pseudo.count = 24;
  with_pseudo.seed = 5;
  EXPECT_EQ(FaultCampaign::make(with_pseudo).faults(),
            (std::vector<Fault>{
                latch(128, 2, 0, 5), latch(98, 2, 1, 15),
                latch(57, 3, 4, 7), latch(89, 0, 1, 23),
                latch(44, 3, 0, 8), latch(143, 3, 0, 10),
                latch(102, 1, 1, 1), latch(153, 0, kValidLane, 0),
                latch(29, 0, 1, 7), latch(192, 3, 13, 14),
                latch(172, 2, 1, 1), latch(70, 2, 0, 29),
                latch(163, 3, 13, 19), latch(74, 3, 5, 10),
                latch(86, 3, 13, 23), latch(193, 2, 4, 5),
                latch(27, 0, 7, 5), latch(95, 3, kFlagsLane, 4),
                latch(176, 0, 0, 2), latch(29, 2, 1, 2),
                latch(123, 2, 5, 24), latch(88, 3, 13, 7),
                latch(176, 2, 5, 20), latch(47, 3, 9, 17)}));
  with_pseudo.source = CampaignSpec::Source::kCram;
  with_pseudo.count = 6;
  with_pseudo.scrub_period_cycles = 32;
  EXPECT_EQ(FaultCampaign::make(with_pseudo).faults(),
            (std::vector<Fault>{
                {128, FaultSite::kConfig, 1, 1, 3, 0x18, 0x8, 160},
                {44, FaultSite::kConfig, 3, 9, 3, 0x18, 0x10, 64},
                {89, FaultSite::kConfig, 2, 0, 22, 0xc00000, 0x800000, 96},
                {186, FaultSite::kConfig, 2, 5, 17, 0x60000, 0x0, 192},
                {102, FaultSite::kConfig, 1, 5, 24, 0x3000000, 0x3000000,
                 128},
                {61, FaultSite::kConfig, 3, 5, 24, 0x3000000, 0x3000000,
                 64}}));

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

// A single-fault draw reads its words from Mt19937_64Prefix, which must
// serve exactly std::mt19937_64's outputs, whatever the seed.
TEST(Cram, SeededPrefixEqualsTheEngine) {
  std::mt19937_64 seeds(2024);
  for (int i = 0; i < 100000; ++i) {
    // The edges first: 0, all ones, the engine's default seed.
    const std::uint64_t seed = i == 0   ? 0
                               : i == 1 ? ~std::uint64_t{0}
                               : i == 2 ? std::mt19937_64::default_seed
                                        : seeds();
    std::mt19937_64 engine(seed);
    Mt19937_64Prefix prefix(seed);
    for (int k = 0; k < Mt19937_64Prefix::kOutputs; ++k) {
      ASSERT_EQ(prefix(), engine()) << "seed " << seed << " output " << k;
    }
  }
  Mt19937_64Prefix prefix(7);
  for (int k = 0; k < Mt19937_64Prefix::kOutputs; ++k) prefix();
  EXPECT_THROW(prefix(), std::logic_error);
}

// A one-fault draw (the seeded prefix) is the first fault of a longer
// draw from the same seed (the engine), for every single-fault source.
TEST(Cram, SingleFaultDrawIsTheFirstOfALongerOne) {
  LatchProfile pseudo = adder_profile(9);
  pseudo.include_valid = true;
  pseudo.include_flags = true;
  const LatchProfile plain = adder_profile(9);
  for (const LatchProfile* profile : {&plain, &std::as_const(pseudo)}) {
    const ProfileSites sites(*profile);
    for (const CampaignSpec::Source source :
         {CampaignSpec::Source::kRandom, CampaignSpec::Source::kCram,
          CampaignSpec::Source::kAccumulator}) {
      for (std::uint64_t seed = 0; seed < 2000; ++seed) {
        CampaignSpec spec;
        spec.source = source;
        spec.sites = &sites;
        spec.horizon = 150 + static_cast<long>(seed % 7);
        spec.rows = 8;
        spec.word_bits = 40;
        spec.scrub_period_cycles = seed % 3 == 0 ? 0 : 32;
        spec.seed = seed * 0x9E3779B97F4A7C15;
        spec.count = 5;
        const std::vector<Fault> longer = FaultCampaign::make(spec).faults();
        ASSERT_EQ(longer.size(), 5u);
        spec.count = 1;
        ASSERT_EQ(FaultCampaign::make(spec).faults(),
                  std::vector<Fault>{longer.front()})
            << "source " << static_cast<int>(source) << " seed " << seed;
      }
    }
  }
}

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
