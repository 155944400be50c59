// FaultInjector and FaultCampaign: seeded reproducibility and the
// zero-fault bit-exactness guarantee.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "units/fp_unit.hpp"

namespace flopsim::fault {
namespace {

units::FpUnit make_unit(units::UnitKind kind, fp::FpFormat fmt, int stages) {
  units::UnitConfig cfg;
  cfg.stages = stages;
  return units::FpUnit(kind, fmt, cfg);
}

LatchProfile profile_of(units::UnitKind kind, fp::FpFormat fmt, int stages) {
  units::FpUnit unit = make_unit(kind, fmt, stages);
  return profile_unit_latches(unit, 24, 0x5eed);
}

CampaignSpec random_spec(const ProfileSites& sites, long horizon, int count,
                         std::uint64_t seed) {
  CampaignSpec spec;
  spec.source = CampaignSpec::Source::kRandom;
  spec.sites = &sites;
  spec.horizon = horizon;
  spec.count = count;
  spec.seed = seed;
  return spec;
}

TEST(FaultCampaign, SameSeedSameRandomFaultList) {
  const LatchProfile profile =
      profile_of(units::UnitKind::kAdder, fp::FpFormat::binary32(), 6);
  const ProfileSites sites(profile);
  const FaultCampaign a = FaultCampaign::make(random_spec(sites, 40, 32, 0x5eed));
  const FaultCampaign b = FaultCampaign::make(random_spec(sites, 40, 32, 0x5eed));
  ASSERT_EQ(a.size(), 32u);
  EXPECT_EQ(a.faults(), b.faults());

  const FaultCampaign c = FaultCampaign::make(random_spec(sites, 40, 32, 0x5eee));
  EXPECT_NE(a.faults(), c.faults());
}

TEST(FaultCampaign, SameSeedSamePoissonFaultList) {
  const LatchProfile profile =
      profile_of(units::UnitKind::kMultiplier, fp::FpFormat::binary32(), 5);
  // Rate chosen so the expected count is a handful of faults.
  const double rate = 8.0 / (static_cast<double>(profile.total_bits()) * 40.0);
  const ProfileSites sites(profile);
  CampaignSpec spec;
  spec.source = CampaignSpec::Source::kPoisson;
  spec.sites = &sites;
  spec.horizon = 40;
  spec.rate = rate;
  spec.seed = 7;
  const FaultCampaign a = FaultCampaign::make(spec);
  const FaultCampaign b = FaultCampaign::make(spec);
  EXPECT_EQ(a.faults(), b.faults());
}

TEST(FaultCampaign, WorkloadIsDeterministic) {
  const std::vector<units::UnitInput> a = campaign_workload(
      units::UnitKind::kAdder, fp::FpFormat::binary64(), 16, 0x5eed);
  const std::vector<units::UnitInput> b = campaign_workload(
      units::UnitKind::kAdder, fp::FpFormat::binary64(), 16, 0x5eed);
  ASSERT_EQ(a.size(), 16u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].b, b[i].b);
    EXPECT_EQ(a[i].subtract, b[i].subtract);
  }
}

TEST(FaultCampaign, RandomFaultsLandInsideTheProfile) {
  const LatchProfile profile =
      profile_of(units::UnitKind::kAdder, fp::FpFormat::binary64(), 8);
  const ProfileSites sites(profile);
  const FaultCampaign camp = FaultCampaign::make(random_spec(sites, 50, 64, 1));
  for (const Fault& f : camp.faults()) {
    EXPECT_EQ(f.site, FaultSite::kStageLatch);
    EXPECT_GE(f.cycle, 0);
    EXPECT_LT(f.cycle, 50);
    ASSERT_GE(f.index, 0);
    ASSERT_LT(f.index, profile.stages());
    ASSERT_GE(f.lane, 0);  // valid/flags excluded by default
    ASSERT_LT(f.lane, rtl::kMaxSignals);
    // The addressed bit was observed occupied during calibration.
    const fp::u64 mask =
        profile.occupied[static_cast<std::size_t>(f.index)]
                        [static_cast<std::size_t>(f.lane)];
    EXPECT_NE(mask & (fp::u64{1} << f.bit), 0u);
  }
}

// An attached injector with an empty fault list must leave the pipeline
// bit-identical to an unobserved twin: latches, outputs, and flags.
TEST(FaultInjector, EmptyCampaignIsBitExact) {
  for (const fp::FpFormat fmt :
       {fp::FpFormat::binary32(), fp::FpFormat::binary64()}) {
    for (const units::UnitKind kind :
         {units::UnitKind::kAdder, units::UnitKind::kMultiplier}) {
      units::UnitConfig probe_cfg;
      const units::FpUnit probe(kind, fmt, probe_cfg);
      const int max = probe.max_stages();
      for (const int stages : {1, (1 + max) / 2, max}) {
        units::FpUnit observed = make_unit(kind, fmt, stages);
        units::FpUnit bare = make_unit(kind, fmt, stages);
        FaultInjector injector = FaultCampaign::from_list({}).make_injector();
        observed.set_latch_observer(&injector);

        const std::vector<units::UnitInput> workload =
            campaign_workload(kind, fmt, 24, 0x5eed);
        const int horizon = 24 + observed.latency() + 2;
        for (int t = 0; t < horizon; ++t) {
          const std::optional<units::UnitInput> in =
              t < 24 ? std::optional<units::UnitInput>(
                           workload[static_cast<std::size_t>(t)])
                     : std::nullopt;
          observed.step(in);
          bare.step(in);

          const auto& lo = observed.latches();
          const auto& lb = bare.latches();
          ASSERT_EQ(lo.size(), lb.size());
          for (std::size_t s = 0; s < lo.size(); ++s) {
            EXPECT_EQ(lo[s].lane, lb[s].lane);
            EXPECT_EQ(lo[s].valid, lb[s].valid);
            EXPECT_EQ(lo[s].flags, lb[s].flags);
          }
          const std::optional<units::UnitOutput> oo = observed.output();
          const std::optional<units::UnitOutput> ob = bare.output();
          ASSERT_EQ(oo.has_value(), ob.has_value());
          if (oo.has_value()) {
            EXPECT_EQ(oo->result, ob->result);
            EXPECT_EQ(oo->flags, ob->flags);
          }
        }
        EXPECT_TRUE(injector.applied().empty());
      }
    }
  }
}

// An explicit fault flips exactly the addressed bit at the addressed cycle
// and is recorded in the applied log.
TEST(FaultInjector, ExplicitFaultFlipsAddressedBit) {
  units::FpUnit unit =
      make_unit(units::UnitKind::kAdder, fp::FpFormat::binary32(), 6);
  Fault f;
  f.cycle = 3;
  f.site = FaultSite::kStageLatch;
  f.index = 2;
  f.lane = 0;
  f.bit = 17;
  FaultInjector injector({f});
  unit.set_latch_observer(&injector);

  const std::vector<units::UnitInput> workload = campaign_workload(
      units::UnitKind::kAdder, fp::FpFormat::binary32(), 8, 0x5eed);
  for (int t = 0; t < 8; ++t) {
    unit.step(workload[static_cast<std::size_t>(t)]);
    if (t < 3) {
      EXPECT_TRUE(injector.applied().empty());
    }
    if (t == 3) {
      // The fault fires on the latch load of its cycle, not later.
      ASSERT_EQ(injector.applied().size(), 1u);
      EXPECT_EQ(unit.latches()[2].lane[0] & (fp::u64{1} << 17),
                injector.applied().front().after & (fp::u64{1} << 17));
    }
  }

  ASSERT_EQ(injector.applied().size(), 1u);
  const AppliedFault& applied = injector.applied().front();
  EXPECT_EQ(applied.fault, f);
  EXPECT_EQ(applied.before ^ applied.after, fp::u64{1} << 17);

  // rewind() re-arms the fault for a replay.
  injector.rewind();
  EXPECT_TRUE(injector.applied().empty());
  unit.reset();
  for (int t = 0; t < 8; ++t) {
    unit.step(workload[static_cast<std::size_t>(t)]);
  }
  ASSERT_EQ(injector.applied().size(), 1u);
  EXPECT_EQ(injector.applied().front().before ^
                injector.applied().front().after,
            fp::u64{1} << 17);
}

// Valid-bit and flag-byte faults address the pseudo-lanes.
TEST(FaultInjector, PseudoLaneFaultsHitValidAndFlags) {
  units::FpUnit unit =
      make_unit(units::UnitKind::kAdder, fp::FpFormat::binary32(), 4);
  Fault valid_fault{2, FaultSite::kStageLatch, 1, kValidLane, 0};
  Fault flag_fault{2, FaultSite::kStageLatch, 2, kFlagsLane, 3};
  FaultInjector injector({valid_fault, flag_fault});
  unit.set_latch_observer(&injector);

  const std::vector<units::UnitInput> workload = campaign_workload(
      units::UnitKind::kAdder, fp::FpFormat::binary32(), 6, 0x5eed);
  bool valid_before = false;
  std::uint8_t flags_before = 0;
  for (int t = 0; t < 6; ++t) {
    unit.step(workload[static_cast<std::size_t>(t)]);
    if (t == 2) {
      valid_before = unit.latches()[1].valid;
      flags_before = unit.latches()[2].flags;
    }
  }
  // The simulator latches stages back-to-front, so the applied log is in
  // stage order, not list order: match entries by their fault.
  ASSERT_EQ(injector.applied().size(), 2u);
  for (const AppliedFault& applied : injector.applied()) {
    if (applied.fault == valid_fault) {
      // The valid bit is reported as a 0/1 word; the latched value we read
      // back at t==2 is the post-flip one.
      EXPECT_EQ(applied.before, valid_before ? 0u : 1u);
      EXPECT_EQ(applied.after, valid_before ? 1u : 0u);
    } else {
      EXPECT_EQ(applied.fault, flag_fault);
      EXPECT_EQ(applied.before ^ applied.after, fp::u64{1} << 3);
      EXPECT_EQ(applied.before,
                static_cast<fp::u64>(flags_before ^ (1u << 3)));
    }
  }
}

}  // namespace
}  // namespace flopsim::fault
