// The unified evaluation API for campaign trial loops.
//
// Three backends answer the same question — "flip this latched bit at
// this (cycle, stage); what reaches the output register?" — at very
// different speeds:
//
//   * kInterpreted: the faithful reference. Each trial re-steps a
//     PipelineSim over the whole horizon with a one-shot injector, the
//     way the campaigns always ran.
//   * kCompiled: compile-once/run-many. A trial copies the struck clean
//     stage-boundary state B[v][s], flips the bit, and replays only the
//     compiled suffix stages — O(pieces downstream of the strike) instead
//     of O(horizon x pieces).
//   * kBitsliced: the compiled backend's batch mode. trials() packs up
//     to 64 upsets into one block, walks the compiled program op-major
//     (each op is fetched once per block, applied to every live slot)
//     and packs the struck/corrupted verdicts into 64-bit words.
//     Pieces stay word-level functions, so the slicing is across
//     *trials* (one program pass serves 64 verdicts), not inside the
//     piece arithmetic.
//
// Every backend binds to one CleanRun: the workload and the clean
// stage-boundary states B[v][s], recorded once by whoever stepped the
// clean pipeline (a unit campaign records it in its golden loop,
// fault::record_clean_unit_run; bind_clean_states is the reference
// recorder). bind() only shares that run, so binding simulates nothing.
//
// All backends are locked to the same contract: identical UpsetTrial
// results for identical upsets, byte for byte. The compiled program runs
// every piece in PipelineSim's order (rtl/program.hpp), so the suffix a
// compiled or bitsliced trial replays is the computation the interpreted
// pipeline performs after the flip; the contract holds by construction,
// not by a bind-time check.
//
// Thread safety: the bound CleanRun is immutable and shared; call fork()
// to get a per-worker evaluator (cheap — the program and the clean run
// are shared behind shared_ptr).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rtl/program.hpp"

namespace flopsim::rtl {

/// Backend selection, shared by CampaignSpec, the campaign configs, and
/// the --backend= CLI flag.
enum class EvalBackend {
  kAuto,         ///< resolve via FLOPSIM_BACKEND, default interpreted
  kInterpreted,
  kCompiled,
  kBitsliced,
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
/// loads on cycle v + s. The single source of truth every backend
/// compares against, so none can drift from the machine.
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

/// The reference recorder: step a fresh PipelineSim over `inputs` for
/// `horizon` cycles and record every stage-boundary state. Campaigns
/// record the same run in their golden loop instead; tests bind from
/// this one.
std::shared_ptr<const CleanRun> bind_clean_states(
    const PieceChain& chain, const PipelinePlan& plan,
    const std::vector<SignalSet>& inputs, long horizon);

/// A bound evaluator answers upset trials against one fixed workload.
/// Lifecycle: make_evaluator() -> bind() once -> trial()/trials() many.
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  virtual EvalBackend backend() const = 0;

  /// Bind the clean run of the workload (recorded over this evaluator's
  /// chain and plan). Shared, never copied: forks see the same run.
  virtual void bind(std::shared_ptr<const CleanRun> run) = 0;

  virtual int stages() const = 0;
  virtual int vectors() const = 0;

  /// Clean stage-boundary state: the contents of stage `stage`'s output
  /// register while holding vector `vector` (== the PipelineSim latch at
  /// cycle vector + stage). Valid after bind(); stage stages()-1 is the
  /// clean registered output.
  virtual const SignalSet& clean_state(int vector, int stage) const = 0;

  /// Run one upset trial. Requires bind().
  virtual UpsetTrial trial(const LatchUpset& upset) = 0;

  /// Batched trials — the bitsliced backend's fast path; the default
  /// implementation loops trial().
  virtual void trials(const LatchUpset* upsets, UpsetTrial* out,
                      std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = trial(upsets[i]);
  }

  /// A per-worker evaluator sharing this one's bound state. Evaluators
  /// are not safe for concurrent trial() calls; forks are.
  virtual std::unique_ptr<Evaluator> fork() const = 0;

  /// The compiled program's guard bits; nullptr for the interpreted
  /// backend.
  virtual const CompileStats* compile_stats() const { return nullptr; }
};

/// Build an evaluator over a borrowed chain + plan (both must outlive the
/// evaluator and every fork, like PipelineSim's borrow). `backend` may be
/// kAuto (resolved here). The compiled backends compile eagerly; the
/// interpreted one ignores the contract.
std::unique_ptr<Evaluator> make_evaluator(EvalBackend backend,
                                          const PieceChain& chain,
                                          const PipelinePlan& plan,
                                          const CompileContract& contract);

}  // namespace flopsim::rtl
