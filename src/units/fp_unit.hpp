// FpUnit: a generated, pipelined floating-point core — the software twin of
// the paper's VHDL adder/subtractor and multiplier.
//
// A unit owns a chain of combinational pieces (the paper's subunits at
// register-insertion granularity), a pipeline plan for the requested depth,
// and a cycle-accurate simulator. Pipeline depth changes latency, frequency,
// area and power — never values: at any depth the unit produces bit-exactly
// the result of fp::add / fp::mul under FpEnv::paper(rounding).
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "fp/format.hpp"
#include "rtl/pipeline.hpp"
#include "rtl/simulator.hpp"
#include "units/unit_config.hpp"

namespace flopsim::units {

enum class UnitKind { kAdder, kMultiplier, kDivider, kSqrt, kMac };

const char* to_string(UnitKind k);

struct UnitInput {
  fp::u64 a = 0;  ///< operand encoding in the unit's format
  fp::u64 b = 0;     ///< ignored by the (unary) square-root core
  bool subtract = false;  ///< adder only: compute a - b
  fp::u64 c = 0;  ///< fused MAC only: the addend of a * b + c

  friend bool operator==(const UnitInput&, const UnitInput&) = default;
};

struct UnitOutput {
  fp::u64 result = 0;
  std::uint8_t flags = 0;  ///< fp::Flags raised by this operation
};

class FpUnit {
 public:
  FpUnit(UnitKind kind, fp::FpFormat fmt, const UnitConfig& cfg);

  FpUnit(const FpUnit&) = delete;
  FpUnit& operator=(const FpUnit&) = delete;
  FpUnit(FpUnit&&) = default;
  FpUnit& operator=(FpUnit&&) = default;

  UnitKind kind() const { return kind_; }
  fp::FpFormat format() const { return fmt_; }
  const UnitConfig& config() const { return cfg_; }
  std::string name() const;

  /// A fresh (reset) unit with this unit's exact configuration. The
  /// const-correct way to replicate a configured core — campaign workers
  /// clone the probe instead of sharing one mutable pipeline.
  FpUnit clone() const { return FpUnit(kind_, fmt_, cfg_); }

  /// Pipeline depth actually realized (requested depth clamped).
  int stages() const { return plan_.stages(); }
  /// Latency in cycles (== stages: one register level per stage).
  int latency() const { return plan_.stages(); }
  /// Deepest pipeline this chain supports.
  int max_stages() const { return rtl::max_stages(*chain_); }

  rtl::Timing timing() const;
  rtl::AreaBreakdown area() const;
  double freq_mhz() const { return timing().freq_mhz; }
  /// The paper's core metric: throughput per unit area (MHz/slice).
  double freq_per_area() const;

  // --- cycle-accurate interface --------------------------------------------
  /// The operand bundle `in` as it enters the pipeline: lanes packed per
  /// the detail:: lane conventions, valid set. This is exactly what
  /// step() presents to the simulator — campaign evaluators pack their
  /// workloads through here so compiled stimuli match the machine.
  static rtl::SignalSet pack(const UnitInput& in);
  /// Present an operand pair (or a bubble) and advance one clock.
  void step(const std::optional<UnitInput>& in);
  /// The unit's registered output; nullopt unless DONE is asserted.
  std::optional<UnitOutput> output() const;
  void reset();

  /// Combinational reference: run the piece chain with no registers.
  UnitOutput evaluate(const UnitInput& in) const;

  const rtl::PieceChain& pieces() const { return *chain_; }
  const rtl::PipelinePlan& plan() const { return plan_; }
  /// Current pipeline registers (for activity measurement).
  const std::vector<rtl::SignalSet>& latches() const {
    return sim_.latches();
  }
  /// The cycle-accurate simulator itself — read-only access for the
  /// obs/ occupancy probes and rtl::TraceRecorder waveform capture.
  const rtl::PipelineSim& sim() const { return sim_; }
  /// Load pipeline state saved by sim().state() on a unit of this
  /// configuration (a kernel replay resuming from a golden snapshot).
  void restore(const rtl::PipelineSim::State& s) { sim_.restore(s); }
  /// Post-latch observer hook (fault injection). Nullptr detaches; the
  /// zero-observer path is bit-identical to an unobserved unit.
  void set_latch_observer(rtl::LatchObserver* observer) {
    sim_.set_latch_observer(observer);
  }

 private:
  UnitKind kind_;
  fp::FpFormat fmt_;
  UnitConfig cfg_;
  std::unique_ptr<rtl::PieceChain> chain_;  // stable address for the sim
  rtl::PipelinePlan plan_;
  rtl::PipelineSim sim_;
};

namespace detail {
// Chain builders (fpadd_unit.cpp / fpmul_unit.cpp).
rtl::PieceChain build_adder_chain(fp::FpFormat fmt, const UnitConfig& cfg);
rtl::PieceChain build_multiplier_chain(fp::FpFormat fmt,
                                       const UnitConfig& cfg);
rtl::PieceChain build_divider_chain(fp::FpFormat fmt, const UnitConfig& cfg);
rtl::PieceChain build_sqrt_chain(fp::FpFormat fmt, const UnitConfig& cfg);
rtl::PieceChain build_mac_chain(fp::FpFormat fmt, const UnitConfig& cfg);
// Shared lane conventions: operands enter in lanes 0/1 (+ lane 2 bit 0 =
// subtract), the result leaves in lane 0 with flags in SignalSet::flags.
inline constexpr int kLaneInA = 0;
inline constexpr int kLaneInB = 1;
inline constexpr int kLaneInCtl = 2;
inline constexpr int kLaneInC = 19;
inline constexpr int kLaneResult = 0;
}  // namespace detail

}  // namespace flopsim::units
