// Reliability-hardened variants of a generated FP core.
//
// Four classic unit-level schemes, built from pieces the library already
// costs honestly through the technology model:
//
//  * kParity     — one parity bit per stage latch word, checked one stage
//                  downstream. Detects every odd-weight latch upset
//                  (single-bit: always); corrects nothing.
//  * kResidue    — residue-mod-3 checking on the significand datapath
//                  (the textbook low-cost check for multipliers). Detects
//                  upsets whose corruption reaches the result significand;
//                  sign/exponent/flag-only corruptions escape.
//  * kDuplicate  — duplicate-and-compare: a full second copy plus a word
//                  comparator on the registered outputs. Detects every
//                  output-corrupting upset by construction.
//  * kTmr        — triple modular redundancy with a bitwise majority
//                  voter. Corrects every single-copy upset.
//  * kEcc        — SECDED(72,64) on the PE's BRAM accumulator bank
//                  (secded.hpp): corrects single-bit storage upsets on
//                  read, detects double-bit ones. A storage scheme — the
//                  unit datapath itself is unhardened, so at unit level it
//                  steps like kNone; its effect shows up in the kernel
//                  campaign (PeConfig::ecc_accumulators).
//
// Duplicate and TMR are *simulated* (two/three real pipelines stepped in
// lockstep, faults injected into copy 0 only, outputs compared/voted
// bit-by-bit); parity and residue apply their detection rule to the real
// injected run. Costs (area, frequency, power) always come from the same
// tech.hpp / unit_power.hpp models as the unhardened cores.
#pragma once

#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "power/unit_power.hpp"
#include "units/fp_unit.hpp"

namespace flopsim::fault {

enum class Scheme { kNone, kParity, kResidue, kDuplicate, kTmr, kEcc };

const char* to_string(Scheme s);
/// Parse "none|parity|residue|dup|duplicate|tmr|ecc|secded"; nullopt on
/// anything else. The non-throwing primitive every CLI flag should route
/// through (usage + exit 2 beats an uncaught exception).
std::optional<Scheme> try_parse_scheme(const std::string& name);
/// Throwing wrapper over try_parse_scheme (std::invalid_argument).
Scheme parse_scheme(const std::string& name);

/// Cost of hardening relative to the unhardened core, at the same depth.
struct HardeningCost {
  device::Resources base;      ///< unhardened post-PAR area
  device::Resources overhead;  ///< added logic/registers/copies
  device::Resources total;
  double base_freq_mhz = 0.0;
  double freq_mhz = 0.0;
  double area_factor = 1.0;   ///< total.slices / base.slices
  double freq_factor = 1.0;   ///< freq / base_freq
  double base_power_mw_100 = 0.0;  ///< dynamic mW at 100 MHz
  double power_mw_100 = 0.0;
  double power_factor = 1.0;
  int extra_latency_cycles = 0;  ///< registered compare/vote stages
};

HardeningCost hardening_cost(const units::FpUnit& unit, Scheme scheme);

/// A hardened core stepped cycle-accurately. Faults are armed per campaign
/// and injected into copy 0 only (the single-event-upset assumption: one
/// particle strikes one copy).
class HardenedUnit {
 public:
  HardenedUnit(units::UnitKind kind, fp::FpFormat fmt,
               const units::UnitConfig& cfg, Scheme scheme);

  /// Arm a campaign on copy 0; replaces any previous one. Returns the live
  /// injector (owned by the unit) for log inspection.
  FaultInjector& arm(const FaultCampaign& campaign);
  /// Detach and drop the armed injector.
  void disarm();

  struct Output {
    /// Copy 0's own registered output (the faulty copy).
    std::optional<units::UnitOutput> raw;
    /// Post-voter/checker architectural output.
    std::optional<units::UnitOutput> out;
    /// The checker fired / copies disagreed on this cycle.
    bool mismatch = false;
  };

  /// Step every copy with the same input and evaluate the checker/voter.
  Output step(const std::optional<units::UnitInput>& in);

  /// Drop in-flight state and detection counters (armed faults persist;
  /// call arm() again or FaultInjector::rewind() to replay them).
  void reset();

  /// A fresh (reset, disarmed) hardened unit with the same kind, format,
  /// configuration and scheme — one per campaign worker. Its copies are
  /// clones of this unit's primary (units::FpUnit::clone), so no chain is
  /// rebuilt.
  HardenedUnit clone() const {
    return HardenedUnit(primary().clone(), scheme_);
  }

  Scheme scheme() const { return scheme_; }
  const units::FpUnit& primary() const { return copies_.front(); }
  long detections() const { return detections_; }
  HardeningCost cost() const { return hardening_cost(primary(), scheme_); }

 private:
  /// `primary` as copy 0, and clones of it as the other copies.
  HardenedUnit(units::FpUnit primary, Scheme scheme);

  Scheme scheme_;
  std::vector<units::FpUnit> copies_;
  std::optional<FaultInjector> injector_;
  std::queue<units::UnitOutput> expected_;  // residue: golden per issue
  std::size_t seen_applied_ = 0;            // parity: injector log cursor
  long detections_ = 0;
};

}  // namespace flopsim::fault
