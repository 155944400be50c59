// Hardened-core invariants: TMR corrects and duplicate/parity detect every
// single-bit latch upset, and the cost model stays within sane bounds.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/seu.hpp"
#include "fault/hardening.hpp"

namespace flopsim::fault {
namespace {

std::vector<int> test_depths(units::UnitKind kind, fp::FpFormat fmt) {
  units::UnitConfig cfg;
  const units::FpUnit probe(kind, fmt, cfg);
  const int max = probe.max_stages();
  return {1, (1 + max) / 2, max};
}

analysis::UnitSeuResult campaign(units::UnitKind kind, fp::FpFormat fmt,
                                 int stages, Scheme scheme) {
  units::UnitConfig cfg;
  cfg.stages = stages;
  analysis::SeuCampaignConfig camp;
  camp.vectors = 20;
  camp.faults = 24;
  camp.scheme = scheme;
  return analysis::run_unit_campaign(kind, fmt, cfg, camp);
}

// TMR must correct every single-bit latch upset: the voted output never
// differs from the golden run.
TEST(Hardening, TmrCorrectsEverySingleBitUpset) {
  const fp::FpFormat fmt = fp::FpFormat::binary16();
  for (const units::UnitKind kind :
       {units::UnitKind::kAdder, units::UnitKind::kMultiplier}) {
    for (const int stages : test_depths(kind, fmt)) {
      const analysis::UnitSeuResult r =
          campaign(kind, fmt, stages, Scheme::kTmr);
      SCOPED_TRACE(std::string(units::to_string(kind)) + " s" +
                   std::to_string(stages));
      EXPECT_EQ(r.injected, 24);
      EXPECT_EQ(r.silent, 0);
      // Every fault that corrupted copy 0's output was voted away.
      EXPECT_EQ(r.corrected, r.corrupted);
      EXPECT_EQ(r.masked + r.corrected, r.injected);
    }
  }
}

// Duplicate-and-compare must flag every output-corrupting upset.
TEST(Hardening, DuplicateDetectsEverySingleBitUpset) {
  const fp::FpFormat fmt = fp::FpFormat::binary16();
  for (const int stages : test_depths(units::UnitKind::kAdder, fmt)) {
    const analysis::UnitSeuResult r =
        campaign(units::UnitKind::kAdder, fmt, stages, Scheme::kDuplicate);
    SCOPED_TRACE("s" + std::to_string(stages));
    EXPECT_EQ(r.silent, 0);
    EXPECT_GE(r.detected, r.corrupted);  // compare fires on any divergence
  }
}

// Parity covers every single-bit latch upset (odd weight by definition).
TEST(Hardening, ParityDetectsEverySingleBitUpset) {
  const fp::FpFormat fmt = fp::FpFormat::binary16();
  for (const int stages : test_depths(units::UnitKind::kMultiplier, fmt)) {
    const analysis::UnitSeuResult r =
        campaign(units::UnitKind::kMultiplier, fmt, stages, Scheme::kParity);
    SCOPED_TRACE("s" + std::to_string(stages));
    EXPECT_EQ(r.silent, 0);
  }
}

// A campaign worker's clone shares the chain the original built, starts
// fresh (reset and disarmed), and steps like a freshly built unit: armed
// with the same upset, every scheme's clone gives the same raw output,
// hardened output and checker verdict on every clock.
TEST(Hardening, ClonesShareTheChainAndStepLikeAFreshUnit) {
  const units::UnitKind kind = units::UnitKind::kMultiplier;
  const fp::FpFormat fmt = fp::FpFormat::binary32();
  units::UnitConfig cfg;
  cfg.stages = 4;
  const int vectors = 12;
  const std::vector<units::UnitInput> workload =
      campaign_workload(kind, fmt, vectors, 0x5eed);
  const units::FpUnit probe(kind, fmt, cfg);
  const LatchProfile profile = profile_unit_latches(probe, vectors, 0x5eed);
  const ProfileSites sites(profile);
  CampaignSpec spec;
  spec.source = CampaignSpec::Source::kRandom;
  spec.sites = &sites;
  spec.horizon = vectors + probe.latency();
  spec.count = 24;
  spec.seed = 41;
  const FaultCampaign drawn = FaultCampaign::make(spec);
  ASSERT_FALSE(drawn.empty());
  const auto input = [&](int t) {
    return t < vectors ? std::optional<units::UnitInput>(
                             workload[static_cast<std::size_t>(t)])
                       : std::nullopt;
  };
  int struck = 0;  // upsets that change the raw output on some clock
  for (const Scheme scheme : {Scheme::kNone, Scheme::kParity,
                              Scheme::kResidue, Scheme::kDuplicate,
                              Scheme::kTmr, Scheme::kEcc}) {
    SCOPED_TRACE(to_string(scheme));
    HardenedUnit orig(kind, fmt, cfg, scheme);
    // The original has stepped under an armed upset; its clone has not.
    orig.arm(FaultCampaign::from_list({drawn.faults().front()}));
    for (int t = 0; t < 4; ++t) orig.step(input(t));
    HardenedUnit clone = orig.clone();
    EXPECT_EQ(&clone.primary().pieces(), &orig.primary().pieces());
    EXPECT_EQ(clone.scheme(), scheme);
    EXPECT_EQ(clone.detections(), 0);
    HardenedUnit fresh(kind, fmt, cfg, scheme);
    HardenedUnit clean(kind, fmt, cfg, scheme);
    for (const Fault& f : drawn.faults()) {
      clone.reset();
      fresh.reset();
      clean.reset();
      clone.arm(FaultCampaign::from_list({f}));
      fresh.arm(FaultCampaign::from_list({f}));
      bool differs = false;
      for (int t = 0; t < spec.horizon + 2; ++t) {
        const HardenedUnit::Output a = clone.step(input(t));
        const HardenedUnit::Output b = fresh.step(input(t));
        const HardenedUnit::Output g = clean.step(input(t));
        ASSERT_EQ(a.raw.has_value(), b.raw.has_value()) << "clock " << t;
        ASSERT_EQ(a.out.has_value(), b.out.has_value()) << "clock " << t;
        if (a.raw) {
          EXPECT_EQ(a.raw->result, b.raw->result) << "clock " << t;
          EXPECT_EQ(a.raw->flags, b.raw->flags) << "clock " << t;
          differs |= !g.raw || g.raw->result != a.raw->result ||
                     g.raw->flags != a.raw->flags;
        }
        if (a.out) {
          EXPECT_EQ(a.out->result, b.out->result) << "clock " << t;
          EXPECT_EQ(a.out->flags, b.out->flags) << "clock " << t;
        }
        EXPECT_EQ(a.mismatch, b.mismatch) << "clock " << t;
      }
      EXPECT_EQ(clone.detections(), fresh.detections());
      if (differs) ++struck;
    }
  }
  EXPECT_GT(struck, 0) << "the upsets must reach the output";
}

TEST(Hardening, SchemeNamesRoundTrip) {
  for (const Scheme s : {Scheme::kNone, Scheme::kParity, Scheme::kResidue,
                         Scheme::kDuplicate, Scheme::kTmr, Scheme::kEcc}) {
    EXPECT_EQ(parse_scheme(to_string(s)), s);
  }
  EXPECT_EQ(parse_scheme("dup"), Scheme::kDuplicate);
  EXPECT_EQ(parse_scheme("secded"), Scheme::kEcc);
  EXPECT_THROW(parse_scheme("bogus"), std::invalid_argument);
}

// The non-throwing primitive the CLI flags route through.
TEST(Hardening, TryParseSchemeNeverThrows) {
  EXPECT_EQ(try_parse_scheme("tmr"), Scheme::kTmr);
  EXPECT_EQ(try_parse_scheme("ecc"), Scheme::kEcc);
  EXPECT_EQ(try_parse_scheme("secded"), Scheme::kEcc);
  EXPECT_EQ(try_parse_scheme("bogus"), std::nullopt);
  EXPECT_EQ(try_parse_scheme(""), std::nullopt);
  EXPECT_EQ(try_parse_scheme("ECC"), std::nullopt);  // names are exact
}

// SECDED buys accumulator protection far below duplication's price: no
// second datapath copy, no extra BRAM (the check byte rides the block
// RAM's parity bits).
TEST(Hardening, EccCostsLessThanDuplication) {
  for (const auto& [kind, fmt] :
       {std::pair{units::UnitKind::kMultiplier, fp::FpFormat::binary32()},
        std::pair{units::UnitKind::kAdder, fp::FpFormat::binary64()}}) {
    units::UnitConfig cfg;
    cfg.stages = 6;
    const units::FpUnit unit(kind, fmt, cfg);
    SCOPED_TRACE(unit.name());

    const HardeningCost ecc = hardening_cost(unit, Scheme::kEcc);
    const HardeningCost dup = hardening_cost(unit, Scheme::kDuplicate);
    EXPECT_GT(ecc.area_factor, 1.0);
    EXPECT_LT(ecc.overhead.slices, dup.overhead.slices);
    EXPECT_LT(ecc.area_factor, dup.area_factor);
    EXPECT_LT(ecc.power_mw_100, dup.power_mw_100);
    EXPECT_LT(ecc.power_factor, dup.power_factor);
    EXPECT_EQ(ecc.overhead.brams, 0);
    EXPECT_EQ(ecc.extra_latency_cycles, 1);
    EXPECT_DOUBLE_EQ(ecc.freq_factor, 1.0);
  }
}

TEST(Hardening, CostFactorsStayInSaneBounds) {
  for (const auto& [kind, fmt] :
       {std::pair{units::UnitKind::kMultiplier, fp::FpFormat::binary32()},
        std::pair{units::UnitKind::kAdder, fp::FpFormat::binary64()}}) {
    units::UnitConfig cfg;
    cfg.stages = 6;
    const units::FpUnit unit(kind, fmt, cfg);
    SCOPED_TRACE(unit.name());

    const HardeningCost none = hardening_cost(unit, Scheme::kNone);
    EXPECT_DOUBLE_EQ(none.area_factor, 1.0);
    EXPECT_DOUBLE_EQ(none.freq_factor, 1.0);
    EXPECT_EQ(none.extra_latency_cycles, 0);

    const HardeningCost parity = hardening_cost(unit, Scheme::kParity);
    const HardeningCost residue = hardening_cost(unit, Scheme::kResidue);
    const HardeningCost dup = hardening_cost(unit, Scheme::kDuplicate);
    const HardeningCost tmr = hardening_cost(unit, Scheme::kTmr);

    // Light checkers: well under a second copy.
    EXPECT_GT(parity.area_factor, 1.0);
    EXPECT_LT(parity.area_factor, 1.6);
    EXPECT_GT(residue.area_factor, 1.0);
    EXPECT_LT(residue.area_factor, 1.6);

    // Duplication: two copies plus a comparator; TMR: three plus a voter.
    EXPECT_GE(dup.area_factor, 2.0);
    EXPECT_LT(dup.area_factor, 3.0);
    EXPECT_GE(tmr.area_factor, 3.0);
    EXPECT_LT(tmr.area_factor, 4.5);
    EXPECT_EQ(dup.extra_latency_cycles, 1);
    EXPECT_EQ(tmr.extra_latency_cycles, 1);

    for (const HardeningCost& c : {parity, residue, dup, tmr}) {
      EXPECT_LE(c.freq_factor, 1.0 + 1e-9);
      EXPECT_GT(c.freq_factor, 0.5);
      EXPECT_GE(c.power_factor, 1.0);
      EXPECT_EQ(c.total.slices, c.base.slices + c.overhead.slices);
      EXPECT_GE(c.power_mw_100, c.base_power_mw_100);
    }
    EXPECT_GT(tmr.power_factor, dup.power_factor);
    EXPECT_GT(dup.power_factor, parity.power_factor);
  }
}

}  // namespace
}  // namespace flopsim::fault
