// Cycle-accurate simulation of a pipelined piece chain.
//
// Each call to step() advances one clock: every stage evaluates its pieces
// (rtl::run_stage) on the contents of the upstream latch, and the result
// is captured in its own latch. Stages run back to front, each loading the
// upstream latch into its own and evaluating it there, so a clock costs
// one bundle move per stage. Data emerges after exactly plan.stages()
// cycles with the DONE (valid) bit set — latency is the pipeline depth,
// throughput one operation per cycle, exactly like the paper's cores.
#pragma once

#include <optional>

#include "rtl/pipeline.hpp"

namespace flopsim::rtl {

/// Observer called immediately after a stage latch loads on a clock edge —
/// the narrow hook the fault layer uses to flip latched bits (SEU
/// injection). With no observer attached the simulator behaves exactly as
/// before; an attached observer that never mutates the latch is a no-op.
class LatchObserver {
 public:
  virtual ~LatchObserver() = default;
  /// `cycle` is the 0-based clock this edge belongs to (== cycles() before
  /// the step completes); `stage` indexes latches()/the stage output
  /// register just written; `latch` may be mutated in place.
  virtual void on_latch(long cycle, int stage, SignalSet& latch) = 0;
};

class PipelineSim {
 public:
  PipelineSim(const PieceChain* chain, PipelinePlan plan);

  /// Advance one clock. `input` is the operand bundle presented this cycle
  /// (std::nullopt = bubble).
  void step(const std::optional<SignalSet>& input);

  /// The output register contents after the latest step(); .valid is the
  /// DONE signal.
  const SignalSet& output() const { return latch_.back(); }

  int latency() const { return plan_.stages(); }

  /// Drop all in-flight state (e.g. between test vectors).
  void reset();

  /// Total cycles stepped since construction/reset.
  long cycles() const { return cycles_; }

  /// Stage output registers after the latest step() (for activity
  /// measurement and debugging).
  const std::vector<SignalSet>& latches() const { return latch_; }

  /// Per-stage count of cycles the stage's output latch held valid data
  /// since construction/reset — the occupancy numerator the obs/ probes
  /// read (bubbles for stage s are cycles() - valid_cycles()[s]).
  const std::vector<long>& valid_cycles() const { return valid_cycles_; }

  /// Everything step() advances: the stage latches, the per-stage valid
  /// counts and the clock. A kernel replay saves it into golden snapshots,
  /// restores a snapshot to resume mid-run, and compares against one to
  /// prove a perturbed run has rejoined the clean one.
  struct State {
    std::vector<SignalSet> latches;
    std::vector<long> valid_cycles;
    long cycles = 0;
  };
  State state() const { return {latch_, valid_cycles_, cycles_}; }
  /// Load a state saved from a simulator of the same plan.
  void restore(const State& s);
  /// Whether the simulator holds exactly `s`, compared in place.
  bool matches(const State& s) const {
    return cycles_ == s.cycles && latch_ == s.latches &&
           valid_cycles_ == s.valid_cycles;
  }

  /// Attach (or detach with nullptr) the post-latch observer. Not owned;
  /// survives reset().
  void set_latch_observer(LatchObserver* observer) { observer_ = observer; }
  LatchObserver* latch_observer() const { return observer_; }

 private:
  const PieceChain* chain_;  // not owned
  PipelinePlan plan_;
  std::vector<SignalSet> latch_;  // latch_[s] = output register of stage s
  std::vector<long> valid_cycles_;  // per stage, cycles latched valid
  long cycles_ = 0;
  LatchObserver* observer_ = nullptr;  // not owned
};

}  // namespace flopsim::rtl
