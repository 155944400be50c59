// Single-event-upset fault description and the injector observer.
//
// The paper treats pipeline depth as a frequency/area/power trade-off; on a
// real SRAM-based fabric every pipeline register added is also one more
// state bit exposed to soft errors. This layer makes the cycle-accurate
// stack fault-injectable: a Fault names one bit of latched state (a stage
// latch lane bit, the DONE/valid bit, a carried exception-flag bit, or a
// PE BRAM accumulator bit) and the clock edge at which it flips. The
// FaultInjector applies a fault list through the post-latch / post-cycle
// observer hooks of rtl::PipelineSim and kernel::ProcessingElement — the
// zero-fault path stays bit-identical to an uninstrumented run.
#pragma once

#include <vector>

#include "kernel/pe.hpp"
#include "rtl/simulator.hpp"

namespace flopsim::fault {

/// Lane pseudo-indices addressing the non-data state of a stage latch.
inline constexpr int kValidLane = -1;  ///< the DONE shift-register bit
inline constexpr int kFlagsLane = -2;  ///< the carried exception-flag byte

enum class FaultSite {
  kStageLatch,   ///< a pipeline-stage output register of a unit
  kAccumulator,  ///< a PE BRAM accumulator word (bits [0,64) data; with
                 ///< SECDED, bits [64,72) address the ECC check byte)
  kConfig,       ///< a configuration-memory upset: the struck piece's
                 ///< stage output is rewired, forcing `stuck` under `mask`
                 ///< on one latch lane every cycle until repaired
};

const char* to_string(FaultSite site);

struct Fault {
  long cycle = 0;  ///< 0-based clock edge at which the bit flips (kConfig:
                   ///< the strike edge — corruption persists from here)
  FaultSite site = FaultSite::kStageLatch;
  /// Stage-latch index (kStageLatch/kConfig) or accumulator row
  /// (kAccumulator).
  int index = 0;
  /// Data lane in [0, rtl::kMaxSignals), or kValidLane / kFlagsLane
  /// (kStageLatch only). Ignored for kAccumulator.
  int lane = 0;
  int bit = 0;  ///< bit within the 64-bit lane / accumulator word
  // --- kConfig only -------------------------------------------------------
  fp::u64 mask = 0;   ///< lane bits driven by the rewired logic
  fp::u64 stuck = 0;  ///< value forced under `mask`
  /// First clock edge at which the configuration has been scrubbed back
  /// (corruption applies on edges [cycle, repair_cycle)); < 0 = never.
  long repair_cycle = -1;

  friend bool operator==(const Fault&, const Fault&) = default;
};

/// Last clock edge at which `f` can alter the state it strikes: the strike
/// edge of a one-shot upset, the edge before a configuration upset's scrub
/// repair, or LONG_MAX for one never repaired. A replay that has passed
/// this edge with its state back to the clean one has masked the fault.
long last_active_cycle(const Fault& f);

/// One fault the injector actually applied, with the touched word before
/// and after the flip (the valid bit is reported as 0/1).
struct AppliedFault {
  Fault fault;
  fp::u64 before = 0;
  fp::u64 after = 0;
};

/// Applies a fault list through both observer hooks. One injector may be
/// attached to at most one PipelineSim and one ProcessingElement at a time
/// (stage faults go to the former, accumulator faults to the latter).
/// An injector with an empty (or exhausted) fault list never touches the
/// observed state.
class FaultInjector : public rtl::LatchObserver, public kernel::StorageObserver {
 public:
  FaultInjector() = default;
  explicit FaultInjector(std::vector<Fault> faults);

  void on_latch(long cycle, int stage, rtl::SignalSet& latch) override;
  void on_storage(long cycle, std::vector<fp::u64>& acc) override;
  void on_check_bits(long cycle, std::vector<std::uint8_t>& check) override;

  const std::vector<Fault>& faults() const { return faults_; }
  /// Faults whose cycle has been reached and whose target existed.
  const std::vector<AppliedFault>& applied() const { return applied_; }
  /// Re-arm every fault and clear the applied log (for replaying the same
  /// campaign on a reset pipeline).
  void rewind();

 private:
  void apply_latch_fault(std::size_t i, rtl::SignalSet& latch);

  std::vector<Fault> faults_;
  std::vector<char> armed_;   // parallel to faults_
  std::vector<char> logged_;  // kConfig: first application already logged
  std::vector<AppliedFault> applied_;
};

}  // namespace flopsim::fault
