// The upset-replay engine for campaign trial loops.
//
// A unit campaign asks one question millions of times: "flip this latched
// bit at this (cycle, stage); what reaches the output register?" Every
// trial of one campaign shares the workload and its clean run, so the
// answer needs only the struck vector's clean state at the struck stage
// and the stages after it:
//
//   * a trial copies the clean stage-boundary state B[v][s] of the vector
//     v = cycle - stage it struck, flips the bit, and replays the chain's
//     pieces of stages s+1 .. S-1 — chain[plan.stage_begin[st] ..
//     stage_begin[st+1]), the ranges PipelineSim::step walks, behind the
//     same per-stage valid gate — then compares the observables (valid,
//     result lane, flags) with the clean output;
//   * trials run in blocks of up to 64, op-major: each piece of a stage is
//     fetched once and applied to every live trial of the block. Pieces
//     stay word-level functions, so the slicing is across trials, not
//     inside the piece arithmetic.
//
// The engine runs every piece PipelineSim runs, in its order, so its
// verdicts equal a full re-simulation's by construction, on faulty states
// as on clean ones. The `compiled` and `bitsliced` backend names both
// select it; `interpreted` is the campaigns' HardenedUnit loop.
//
// The clean run (CleanRun) is recorded once by whoever stepped the clean
// pipeline (a unit campaign records it in its golden loop,
// fault::record_clean_unit_run) and shared, immutable, by every worker's
// engine. An engine is not safe for concurrent calls: each worker builds
// its own, which costs one shared_ptr copy and no simulation.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rtl/pipeline.hpp"
#include "rtl/signals.hpp"

namespace flopsim::rtl {

/// Backend selection, shared by the campaign configs and the --backend=
/// CLI flag.
enum class EvalBackend {
  kAuto,         ///< resolve via FLOPSIM_BACKEND, default interpreted
  kInterpreted,
  kCompiled,     ///< the upset-replay engine (same engine as kBitsliced)
  kBitsliced,    ///< the upset-replay engine
};

const char* to_string(EvalBackend b);
/// Parse "interpreted" / "compiled" / "bitsliced" (the --backend= value
/// set); nullopt on anything else. "auto" intentionally has no spelling:
/// auto is the absence of the flag.
std::optional<EvalBackend> try_parse_backend(const std::string& name);
/// kAuto -> the FLOPSIM_BACKEND environment variable when set to a valid
/// backend name, else kInterpreted (exactly how threads=0 resolves via
/// FLOPSIM_THREADS). Non-auto values pass through.
EvalBackend resolve_backend(EvalBackend requested);

/// One latch upset: flip `bit` of data lane `lane` in stage `stage`'s
/// output register on clock `cycle`.
struct LatchUpset {
  long cycle = 0;
  int stage = 0;
  int lane = 0;
  int bit = 0;
};

/// What the upset did to the registered output of the vector it struck.
struct UpsetTrial {
  /// The upset landed on an occupied latch (a workload vector was in that
  /// stage on that cycle). False = bubble strike: nothing valid was hit,
  /// every other field is default.
  bool struck = false;
  /// Output observables of the struck vector differ from its clean run
  /// (valid bit, result lane, or flags).
  bool corrupted = false;
  bool valid = false;        ///< faulty DONE bit at the output register
  fp::u64 result = 0;        ///< faulty result-lane value
  std::uint8_t flags = 0;    ///< faulty carried flags
};

/// One clean simulation of a workload: the packed operand bundles
/// presented on cycles 0..vectors-1 (bubbles after), the horizon a
/// campaign steps, and the clean stage-boundary states B[v][s] — the
/// contents of stage s's output register while holding vector v, which
/// loads on cycle v + s. The single source of truth every trial compares
/// against, so none can drift from the machine.
struct CleanRun {
  std::vector<SignalSet> inputs;
  long horizon = 0;
  int vectors = 0;
  int stages = 0;
  std::vector<SignalSet> states;  // [v * stages + s]

  CleanRun() = default;
  /// An empty run of `stages` stages over `inputs`, ready for record().
  CleanRun(std::vector<SignalSet> inputs, long horizon, int stages);

  /// Record the latches a clean PipelineSim holds after stepping clock
  /// `cycle`: latch s holds vector cycle - s.
  void record(long cycle, const std::vector<SignalSet>& latches);

  const SignalSet& state(int v, int s) const {
    return states[static_cast<std::size_t>(v) *
                      static_cast<std::size_t>(stages) +
                  static_cast<std::size_t>(s)];
  }

  friend bool operator==(const CleanRun&, const CleanRun&) = default;
};

/// Answers latch upsets against one clean run of a chain.
class Evaluator {
 public:
  /// Borrows `chain` and `plan` (both must outlive the engine, like
  /// PipelineSim's borrow) and shares `run`, recorded over them.
  /// `result_lane` is the data lane the output comparison reads.
  Evaluator(const PieceChain& chain, const PipelinePlan& plan,
            int result_lane, std::shared_ptr<const CleanRun> run);

  /// Answer `n` upsets into out[0..n), 64 at a time.
  void trials(const LatchUpset* upsets, UpsetTrial* out, std::size_t n);

 private:
  const PieceChain* chain_;
  const PipelinePlan* plan_;
  int result_lane_;
  std::shared_ptr<const CleanRun> run_;
  std::array<SignalSet, 64> slot_{};
};

}  // namespace flopsim::rtl
