// Processing element of the matrix-multiply linear array.
//
// Per the paper: "a linear array of identical PEs, each of which contains a
// floating-point adder and a floating-point multiplier", plus local storage
// (a BRAM bank of accumulators and the resident B operand) and control
// (counters and the control-signal shift registers whose length tracks the
// units' pipeline latency).
//
// The PE is cycle-accurate: the multiplier and adder inside are the
// structural pipelined units, so a MAC issued at cycle t writes back at
// t + Lmul + Ladd, and accumulator reuse inside that window is a real
// read-after-write hazard the PE detects and counts.
//
// Every accumulate is one pass of the multiplier (split PE only), one read
// of an accumulator row, one pass of the consuming unit (the adder, or the
// fused MAC) and one write-back. A kernel replay (kernel/matmul.hpp)
// computes a PE's share of a product accumulate by accumulate, walking
// each one through its units with run_accumulate and reading rows through
// ecc_read on the clocks accumulate_clocks gives: the same stage walk,
// corrector and timing step() runs.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "device/resources.hpp"
#include "units/fp_unit.hpp"

namespace flopsim::kernel {

/// Observer called at the end of every PE clock with the accumulator bank —
/// the narrow hook the fault layer uses to flip BRAM-resident bits (SEU
/// injection). With no observer attached the PE behaves exactly as before.
class StorageObserver {
 public:
  virtual ~StorageObserver() = default;
  /// `cycle` is the 0-based clock just completed (== cycles() before the
  /// step finished); `acc` is the live accumulator bank, mutable in place.
  virtual void on_storage(long cycle, std::vector<fp::u64>& acc) = 0;
  /// Called right after on_storage when the bank carries SECDED check
  /// bytes (PeConfig::ecc_accumulators): lets the fault layer strike the
  /// code bits too. Default ignores them.
  virtual void on_check_bits(long cycle, std::vector<std::uint8_t>& check) {
    (void)cycle;
    (void)check;
  }
};

/// The PE's SECDED read of one stored word: a single-bit upset is repaired
/// in place (the read-modify-write of a BRAM ECC controller) and counted
/// in `corrections`; a double-bit one is counted in `detections` and the
/// word returned raw.
fp::u64 ecc_read(fp::u64& data, std::uint8_t& check, long& corrections,
                 long& detections);

/// One accumulate's pass through one of the PE's units (its product
/// through the multiplier, or its sum through the adder or fused MAC), as
/// PipelineSim::step carries a bundle that enters on clock `entry`:
/// packed (units::FpUnit::pack), then stage by stage through
/// rtl::run_stage behind the valid gate. With an observer attached, stage
/// s's latch goes to it on clock entry + s, where step() shows it, the
/// stages after valid drops included. nullopt when the bundle leaves the
/// last stage invalid, where the PE reads or writes nothing.
std::optional<units::UnitOutput> run_accumulate(
    const rtl::PieceChain& chain, const rtl::PipelinePlan& plan,
    const units::UnitInput& in, long entry = 0,
    rtl::LatchObserver* observer = nullptr);

/// A unit of the PE's multiplier + adder datapath: where a latch or
/// configuration upset strikes. The fused-MAC PE steps neither.
enum class PeUnit { kMultiplier, kAdder };

struct PeConfig {
  fp::FpFormat fmt = fp::FpFormat::binary32();
  int adder_stages = 8;
  int mult_stages = 5;
  fp::RoundingMode rounding = fp::RoundingMode::kNearestEven;
  device::Objective objective = device::Objective::kArea;
  device::TechModel tech = device::TechModel::virtex2pro7();
  /// Accumulator words of local storage (BRAM depth used).
  int storage_rows = 1024;
  /// Use one fused MAC core (single rounding per accumulate) instead of
  /// the paper's multiplier + adder pair. Extension; the MAC depth is
  /// adder_stages + mult_stages for comparability.
  bool use_fused_mac = false;
  /// Protect the accumulator bank with SECDED(72,64): encode on every
  /// write, correct single-bit / detect double-bit upsets on every read
  /// (fault::Scheme::kEcc). The check byte rides the BRAM parity bits.
  bool ecc_accumulators = false;

  units::UnitConfig adder_config() const;
  units::UnitConfig mult_config() const;
  units::UnitConfig mac_config() const;
};

class ProcessingElement {
 public:
  explicit ProcessingElement(const PeConfig& cfg);

  /// A fresh (cleared) PE with this one's configuration whose units are
  /// clones of this one's (units::FpUnit::clone: the built chains are
  /// shared, nothing is rebuilt). `storage_rows` > 0 sizes the clone's
  /// accumulator bank instead of config().storage_rows. Observers are not
  /// carried over.
  ProcessingElement clone(int storage_rows = 0) const;

  /// A multiply-accumulate: acc[row] += a * b (operand encodings).
  struct MacIssue {
    fp::u64 a = 0;
    fp::u64 b = 0;
    int row = 0;
  };

  /// Advance one clock, optionally issuing a MAC.
  void step(const std::optional<MacIssue>& issue);

  /// The clocks step() runs one accumulate on whose MAC issues on clock
  /// `issue`. Split PE: the product rides the multiplier from the issue to
  /// the read, which loads the add-stage register, and the sum rides the
  /// adder from the next clock to the write-back. Fused PE: the row is
  /// read and the MAC entered at the issue.
  struct AccumulateClocks {
    long issue = 0;
    long read = 0;       ///< the accumulator row is read
    long entry = 0;      ///< the adder or fused MAC takes the sum's inputs
    long writeback = 0;  ///< the result lands in the row
  };
  AccumulateClocks accumulate_clocks(long issue) const;
  /// Whether a row read on clock `read` returns a write-back of clock
  /// `writeback`: step() reads before it writes back, so only those of
  /// earlier clocks. One of the row's not yet seen is a RAW hazard.
  static bool read_sees(long read, long writeback) { return writeback < read; }

  /// Total issue-to-writeback latency: Lmul + Ladd — the paper's "PL".
  int total_latency() const;
  int adder_latency() const { return adder_.latency(); }
  int mult_latency() const { return mult_.latency(); }

  /// Accumulator word as architecture reads it: with ECC enabled the read
  /// passes through the SECDED corrector (single-bit upsets are repaired,
  /// double-bit ones counted as detected and returned raw).
  fp::u64 acc(int row) const;
  /// The stored word and check byte of `row` as they sit in the bank, no
  /// corrector (the check byte is 0 without ECC).
  fp::u64 stored_word(int row) const;
  std::uint8_t stored_check(int row) const;
  void set_acc(int row, fp::u64 v);
  void clear();

  /// True when no MAC is in flight.
  bool drained() const { return in_flight_ == 0; }

  long mac_issues() const { return mac_issues_; }
  /// Accumulator reads that raced a pending writeback (stale data read).
  long hazards() const { return hazards_; }
  /// ECC: single-bit upsets repaired on read / double-bit upsets detected
  /// (uncorrectable, word returned raw). Always 0 without ecc_accumulators.
  long ecc_corrections() const { return ecc_corrections_; }
  long ecc_detections() const { return ecc_detections_; }
  std::uint8_t flags() const { return flags_; }
  /// Clocks stepped since construction / the last clear().
  long cycles() const { return cycles_; }
  /// The configuration as built (storage_rows after any array widening).
  const PeConfig& config() const { return cfg_; }

  /// Everything step() reads or writes, with the accumulator bank cut to
  /// its first `rows` rows: the unit pipelines (multiplier, adder, and the
  /// fused MAC when engaged), the add-stage register, the row-tag queues,
  /// per-row data, check bytes and pending writes, and every counter.
  /// MatmulReplay::record loads the drained PE of a walked golden pass
  /// this way.
  struct State {
    std::vector<rtl::PipelineSim::State> units;
    std::optional<units::UnitInput> add_stage_reg;
    std::vector<int> mult_rows;
    std::vector<int> adder_rows;
    std::vector<fp::u64> acc;
    std::vector<std::uint8_t> acc_check;
    std::vector<int> pending_writes;
    int in_flight = 0;
    long mac_issues = 0;
    long hazards = 0;
    long ecc_corrections = 0;
    long ecc_detections = 0;
    long cycles = 0;
    std::uint8_t flags = 0;
  };
  State save(int rows) const;
  /// Load a state saved by a PE of the same configuration; rows at or
  /// beyond s.acc.size() keep their contents.
  void restore(const State& s);
  /// Whether the PE holds exactly `s` (over s's rows).
  bool matches(const State& s) const;

  /// Attach (or detach with nullptr) the end-of-cycle storage observer.
  /// Not owned; survives clear().
  void set_storage_observer(StorageObserver* observer) {
    storage_observer_ = observer;
  }

  /// Per-PE FPGA resources: units + storage + control. Control includes the
  /// latency-proportional control shift registers the paper describes.
  device::Resources resources() const;
  device::Resources mac_resources() const;
  device::Resources storage_resources() const;
  device::Resources control_resources() const;

  /// The slower of the two units bounds the PE clock.
  double freq_mhz() const;

  const units::FpUnit& adder() const { return adder_; }
  const units::FpUnit& multiplier() const { return mult_; }
  /// The unit an accumulator read feeds: the fused MAC when engaged, else
  /// the adder.
  const units::FpUnit& accumulator_unit() const {
    return mac_.has_value() ? *mac_ : adder_;
  }
  /// Mutable access for fault-hook attachment (FpUnit::set_latch_observer).
  units::FpUnit& adder() { return adder_; }
  units::FpUnit& multiplier() { return mult_; }
  units::FpUnit& accumulator_unit() {
    return mac_.has_value() ? *mac_ : adder_;
  }

 private:
  /// A PE of `cfg` around already-built units (the constructor and
  /// clone() both land here).
  ProcessingElement(const PeConfig& cfg, units::FpUnit mult,
                    units::FpUnit adder, std::optional<units::FpUnit> mac);

  /// Read acc_[row] through the SECDED corrector, repairing the stored
  /// word in place (read-modify-write, as a BRAM ECC controller does).
  fp::u64 read_acc(int row);
  void write_acc(int row, fp::u64 v);

  PeConfig cfg_;
  units::FpUnit mult_;
  units::FpUnit adder_;
  std::optional<units::FpUnit> mac_;  // engaged when cfg.use_fused_mac
  std::vector<fp::u64> acc_;
  std::vector<std::uint8_t> acc_check_;  // SECDED check bytes (ECC only)
  std::vector<int> pending_writes_;  // per row, writebacks in flight
  /// Registered operand stage between multiplier output and adder input —
  /// the accumulator read happens when this register loads.
  std::optional<units::UnitInput> add_stage_reg_;
  std::deque<int> mult_rows_;        // row tags riding the multiplier
  std::deque<int> adder_rows_;       // row tags riding the adder
  int in_flight_ = 0;
  long mac_issues_ = 0;
  long hazards_ = 0;
  // Mutable: the architectural read `acc()` is logically const but still
  // exercises the corrector, and its verdicts must be observable.
  mutable long ecc_corrections_ = 0;
  mutable long ecc_detections_ = 0;
  long cycles_ = 0;
  std::uint8_t flags_ = 0;
  StorageObserver* storage_observer_ = nullptr;  // not owned
};

}  // namespace flopsim::kernel
