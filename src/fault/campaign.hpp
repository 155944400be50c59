// Seeded, reproducible fault campaigns.
//
// A campaign is a fault list. It can be given explicitly, drawn uniformly
// over the *occupied* latch-bit space of a unit (bits observed carrying
// data under a calibration workload — the architectural-vulnerability-
// factor denominator), drawn from a Poisson upset-rate model (upsets per
// bit-cycle over the physical state bits, the way raw fabric upset rates
// are quoted), aimed at PE accumulator words, or placed in configuration
// memory (persistent stuck-logic faults bounded by a scrub period).
// Everything is driven by one std::mt19937_64 with an explicit algorithm
// on top, so the same seed yields the same fault list on every platform
// and every run (a single-fault draw reads the same words from
// Mt19937_64Prefix, which seeds only the state they need).
//
// All sources funnel through one declarative description, CampaignSpec,
// and a single constructor, FaultCampaign::make(spec); cram_test pins the
// fault list each source draws for a fixed spec, value by value.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "rtl/evaluator.hpp"
#include "units/fp_unit.hpp"

namespace flopsim::fault {

/// Per-stage OR-mask of every latch bit observed set during a calibration
/// run — the sample space for random latch faults. Bits that never carry a
/// one under the workload are excluded: flipping them is either impossible
/// (the lane is unused by this unit) or equivalent to flipping an occupied
/// bit at another time.
struct LatchProfile {
  std::vector<std::array<fp::u64, rtl::kMaxSignals>> occupied;
  bool include_valid = false;  ///< also sample the DONE bit
  bool include_flags = false;  ///< also sample the carried flag byte

  int stages() const { return static_cast<int>(occupied.size()); }
  /// Occupied data bits (plus valid/flag bits when included) per stage,
  /// summed — the AVF denominator.
  long total_bits() const;
  /// OR one clock's stage latches into `occupied` (sized to stages()).
  void observe(const std::vector<rtl::SignalSet>& latches);
};

/// Drive `vectors` deterministic operands (plus drain bubbles) through a
/// fresh clone of the unit's pipeline and OR every latch observed. The
/// passed unit is never touched (const-correct: safe to call on a probe
/// shared across campaign worker threads).
LatchProfile profile_unit_latches(const units::FpUnit& unit, int vectors,
                                  std::uint64_t seed);

/// Everything a unit campaign reads from its clean pipeline, recorded in
/// one simulation: the registered output of every cycle (the interpreted
/// trials' oracle), the occupied-bit profile (equal to
/// profile_unit_latches over the same workload and horizon) and, when
/// asked, the stage-boundary states the upset-replay engine
/// (rtl::Evaluator) replays from.
struct CleanUnitRun {
  std::vector<std::optional<units::UnitOutput>> golden;  ///< per cycle
  LatchProfile profile;
  std::shared_ptr<const rtl::CleanRun> clean;  ///< null unless kept
};

/// Reset `unit` and step it over `workload` (bubbles after) for
/// `horizon` cycles, recording the run. `unit` is left holding the clean
/// run's end state (its occupancy counters included).
CleanUnitRun record_clean_unit_run(units::FpUnit& unit,
                                   const std::vector<units::UnitInput>& workload,
                                   long horizon, bool keep_states);

/// Deterministic operand stream for campaigns: uniform encodings of the
/// unit's format with alternating subtract for adders. The same (fmt,
/// count, seed) always yields the same stream.
std::vector<units::UnitInput> campaign_workload(units::UnitKind kind,
                                                fp::FpFormat fmt, int count,
                                                std::uint64_t seed);

/// One latch fault site of a profile: a stage, a data lane (or kValidLane
/// / kFlagsLane) and a bit.
struct BitSite {
  int stage;
  int lane;
  int bit;
};

/// A profile's occupied bits flattened into sites, so uniform sampling is
/// an index draw: per stage, its data bits by lane and bit, then the valid
/// and flag pseudo-sites the profile includes. Built eagerly and immutable,
/// so concurrent make() calls may share one; a caller drawing many
/// campaigns from one profile flattens it once, not once per make().
class ProfileSites {
 public:
  /// Borrows `profile`, which must outlive this list and stay unchanged.
  explicit ProfileSites(const LatchProfile& profile);

  const LatchProfile& profile() const { return *profile_; }
  /// Every site, pseudo-sites included (kRandom / kPoisson).
  const std::vector<BitSite>& latch() const { return latch_; }
  /// Data bits only (kCram): the same list when there are no
  /// pseudo-sites.
  const std::vector<BitSite>& data() const {
    return has_pseudo_ ? data_ : latch_;
  }

 private:
  const LatchProfile* profile_;
  bool has_pseudo_;
  std::vector<BitSite> latch_;
  std::vector<BitSite> data_;  ///< empty unless has_pseudo_
};

/// The first kOutputs outputs of std::mt19937_64(seed), bit for bit. Output
/// k reads seeded state words k, k + 1 and k + 156, so this seeds only the
/// first 156 + kOutputs words, where the engine seeds all 312 and twists
/// them before its first output. kOutputs is what a single-fault draw
/// reads at most.
class Mt19937_64Prefix {
 public:
  static constexpr int kOutputs = 3;

  explicit Mt19937_64Prefix(std::uint64_t seed);

  /// The next output; std::logic_error past kOutputs.
  std::uint64_t operator()();

 private:
  std::array<std::uint64_t, kOutputs> out_{};
  int next_ = 0;
};

/// Declarative campaign description: pick a source, fill the fields that
/// source reads (the others are ignored), hand it to FaultCampaign::make.
struct CampaignSpec {
  enum class Source {
    kList,         ///< the explicit `faults` list, verbatim
    kRandom,       ///< `count` uniform draws over `sites` x horizon
    kPoisson,      ///< Poisson(`rate` x profile bits x horizon) draws
    kAccumulator,  ///< `count` single-bit accumulator upsets
    kCram,         ///< `count` persistent configuration upsets
  };

  Source source = Source::kList;
  std::uint64_t seed = 0;
  /// Campaign length in cycles; fault strike times are uniform in
  /// [0, horizon). Read by every random source.
  long horizon = 0;

  std::vector<Fault> faults;  ///< kList only

  /// Occupied-bit sample space (kRandom / kPoisson / kCram): a profile's
  /// flattened sites. Borrowed, not owned: they and their profile must
  /// outlive the make() call (not the campaign).
  const ProfileSites* sites = nullptr;

  int count = 0;      ///< kRandom / kAccumulator / kCram: faults to place
  double rate = 0.0;  ///< kPoisson: upsets per bit-cycle

  int rows = 0;        ///< kAccumulator: accumulator bank depth
  int word_bits = 64;  ///< kAccumulator: bits sampled per word (<= 72;
                       ///< > 64 reaches the SECDED check byte)

  /// kCram: cycles between scrub passes; a struck configuration repairs at
  /// the next scrub boundary after the strike. <= 0 means never repaired.
  long scrub_period_cycles = 0;
  /// kCram: width of the stuck mask a single upset imposes — a LUT/routing
  /// flip typically perturbs a couple of adjacent signal bits, not one.
  int mask_bits = 2;
};

class FaultCampaign {
 public:
  /// The one constructor: build the fault list `spec` describes. Every
  /// random source draws from std::mt19937_64(spec.seed); a draw of one
  /// fault (`count` == 1: kRandom, kAccumulator, kCram) reads its two or
  /// three words from a Mt19937_64Prefix, the same words at a fraction of
  /// the seeding.
  ///  * kRandom: `count` faults uniform over the profile's occupied bits
  ///    x stages x [0, horizon) cycles.
  ///  * kPoisson: the number of faults is Poisson-distributed with mean
  ///    `rate * profile.total_bits() * horizon`, each placed like kRandom.
  ///  * kAccumulator: `count` single-bit accumulator upsets: row uniform
  ///    in [0, rows), bit uniform in [0, word_bits), cycle uniform in
  ///    [0, horizon).
  ///  * kCram: `count` persistent configuration upsets (FaultSite::kConfig):
  ///    the struck site is uniform over the profile's occupied *data*
  ///    bits, the stuck mask covers `mask_bits` occupied bits upward from
  ///    it, the stuck value is a random draw under that mask, and the
  ///    fault repairs at the first scrub boundary after the strike (never,
  ///    if no scrub period).
  static FaultCampaign make(const CampaignSpec& spec);

  /// An explicit fault list.
  static FaultCampaign from_list(std::vector<Fault> faults);

  const std::vector<Fault>& faults() const { return faults_; }
  bool empty() const { return faults_.empty(); }
  std::size_t size() const { return faults_.size(); }

  FaultInjector make_injector() const { return FaultInjector(faults_); }

 private:
  static FaultCampaign make_impl(const CampaignSpec& spec);

  std::vector<Fault> faults_;
};

}  // namespace flopsim::fault
