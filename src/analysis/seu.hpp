// Soft-error vulnerability analysis — the reliability axis the paper's
// min/max/opt depth selection cannot see.
//
// Every pipeline register a deeper design adds is one more SRAM-backed
// state bit exposed to single-event upsets. This module runs seeded
// fault-injection campaigns against the cycle-accurate units and kernels,
// measures the architectural vulnerability factor (AVF: the fraction of
// latch-bit upsets that corrupt the architectural result, using the golden
// `fp::` reference via the unit's own clean run as oracle), converts it to
// a silent-data-corruption FIT rate, and extends the paper's
// select_min_max_opt with a reliability constraint.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/pareto.hpp"
#include "exec/cancel.hpp"
#include "fault/cram.hpp"
#include "fault/hardening.hpp"
#include "kernel/matmul.hpp"
#include "rtl/evaluator.hpp"

namespace flopsim::analysis {

/// Per-fault verdict of a hardened (or bare) unit campaign.
enum class FaultOutcome { kMasked, kDetected, kCorrected, kSilent };

struct SeuCampaignConfig {
  int vectors = 32;  ///< workload operands driven through the pipe
  int faults = 48;   ///< upsets injected, one per run (single-fault model)
  std::uint64_t seed = 0x5eed;
  fault::Scheme scheme = fault::Scheme::kNone;
  /// Worker threads for the trial loop (exec::parallel_for_grid).
  /// 0 = auto (FLOPSIM_THREADS, then hardware_concurrency); 1 = serial.
  /// The fault list is pre-drawn and tallies reduce in fault-list order,
  /// so results are bit-identical for every thread count.
  int threads = 0;
  /// Trial evaluation backend. kAuto resolves via FLOPSIM_BACKEND,
  /// defaulting to the interpreted reference. kCompiled and kBitsliced
  /// both run the upset-replay engine (rtl::Evaluator), which produces
  /// bit-identical tallies (and checkpoint bytes — the backend never
  /// enters the spec hash); a campaign whose faults or chain fall outside
  /// its guarantees (non-latch faults, DONE-writing pieces) falls back to
  /// the interpreted loop, counted in the registry counter
  /// campaign.unit.backend_fallback.
  rtl::EvalBackend backend = rtl::EvalBackend::kAuto;
};

/// How a resilient campaign invocation ended and what it covered. Embedded
/// in every campaign result; all-defaults means "ran to completion with no
/// checkpointing involved" — exactly the legacy behaviour.
struct CampaignRunStatus {
  bool interrupted = false;  ///< cancelled before every chunk finished
  exec::CancelToken::Reason stop_reason = exec::CancelToken::Reason::kNone;
  long chunks_total = 0;
  long chunks_completed = 0;  ///< chunks run by THIS invocation
  long chunks_restored = 0;   ///< chunks restored from a checkpoint
  long trials_executed = 0;   ///< trials run by THIS invocation
};

struct UnitSeuResult {
  int injected = 0;
  int masked = 0;     ///< never reached the architectural output
  int detected = 0;   ///< checker fired (parity/residue/compare)
  int corrected = 0;  ///< TMR: raw copy corrupted, voted output clean
  int silent = 0;     ///< corrupted the output with no error indication
  /// Raw (pre-voter) corruption count — the scheme-independent AVF
  /// numerator.
  int corrupted = 0;
  long occupied_bits = 0;  ///< AVF sample space (occupied latch bits)
  int pipeline_ffs = 0;    ///< physical latch bits (upset cross-section)
  CampaignRunStatus run;

  double avf() const {
    return injected > 0 ? static_cast<double>(corrupted) / injected : 0.0;
  }
  double sdc_fraction() const {
    return injected > 0 ? static_cast<double>(silent) / injected : 0.0;
  }
};

/// 95% confidence half-width of the proportion `successes / n`, using the
/// Agresti-Coull adjusted estimate p~ = (s+2)/(n+4) so an early all-masked
/// (or all-silent) sample never reports a zero width. 0 when n == 0. The
/// convergence early-stop compares this — scaled to FIT for unit
/// campaigns — against CampaignRunControl::stop_half_width.
double proportion_half_width(long successes, long n);

/// Inject `camp.faults` single upsets (one per run) into a unit at the
/// configured depth and classify each against the golden run.
UnitSeuResult run_unit_campaign(units::UnitKind kind, fp::FpFormat fmt,
                                const units::UnitConfig& cfg,
                                const SeuCampaignConfig& camp);

/// Raw-fabric upset-rate model for *user state* (pipeline latches, BRAM
/// words). Configuration memory is CramRateModel below.
struct SeuRateModel {
  /// Upset rate of SRAM state, FIT per Mbit — Virtex-II-era neutron+alpha
  /// order of magnitude.
  double fit_per_mbit = 400.0;

  /// Failures-in-time (events per 1e9 device-hours) of `bits` state bits
  /// derated by the architectural vulnerability factor.
  double fit(int bits, double avf) const {
    return fit_per_mbit * (static_cast<double>(bits) / 1e6) * avf;
  }
};

// --- resilient execution -----------------------------------------------
//
// The unit campaign, the matmul campaign and the depth sweep share one
// checkpointed grid: exec::parallel_for_grid over a static chunk grid
// whose boundaries depend only on (trial count, chunk_trials), never on
// the thread count. Every trial's verdict lives in a slot that holds its
// sidecar bytes (one byte per unit or matmul trial, 64 per depth point),
// and each finished chunk's slots are appended to a fault::CheckpointWriter
// sidecar keyed by a content hash of the campaign spec (unit, precision,
// depth, hardening, seeds, trial count, chunking). Resume reopens the
// sidecar in place, restores its chunks into their slots, skips them, runs
// the rest, and replays the ordered reduction — bit-identical to an
// uninterrupted run at any thread count. A trial budget fixes the chunks
// it covers before the grid runs, and the convergence stop keeps a
// grid-order prefix of chunks, so budgeted and stopped runs are
// bit-identical at any thread count too. Signals and time budgets are
// polled between chunks; in-flight chunks always finish and are
// checkpointed before return.

struct CampaignRunControl {
  /// Polled at chunk boundaries; nullptr = campaign makes a private token
  /// (budgets and convergence still work, signals do not reach it).
  exec::CancelToken* cancel = nullptr;
  /// Directory for checkpoint sidecars (one file per campaign spec hash).
  /// Empty = no checkpointing.
  std::string checkpoint_dir;
  /// Restore and skip chunks recorded in an existing sidecar. A sidecar
  /// whose spec hash / trial count / chunk size disagree with this
  /// campaign throws std::runtime_error — mixed tallies are refused.
  bool resume = false;
  /// fsync the sidecar every N appends (<= 0: only at close).
  long fsync_interval = 8;
  /// Trials per grid chunk — the checkpoint granularity. Must match
  /// between the interrupted run and the resume.
  std::size_t chunk_trials = 16;
  /// Run at most this many trials in THIS invocation (0 = off): the first
  /// not-restored chunks, in grid order, whose trials cover it, fixed
  /// before the grid runs, so the overshoot is at most chunk_trials - 1
  /// and the chunks that run do not depend on the thread count.
  long trial_budget = 0;
  /// Early-stop once the 95% confidence half-width of the campaign's
  /// headline rate drops to or below this (0 = off), tested over the
  /// grid-order prefix of finished chunks (ConvergenceStop), so a stopped
  /// campaign's tallies do not depend on the thread count. Unit campaigns
  /// measure it in FIT via `rate`; matmul campaigns in SDC fraction.
  double stop_half_width = 0.0;
  /// Converts the unit-campaign SDC proportion to FIT for the early stop.
  SeuRateModel rate;
};

/// The convergence early stop of a campaign's chunk grid, as a function of
/// which chunks are done and how many silent trials each holds, never of
/// the order the workers finish them in. It looks only at the contiguous
/// grid-order prefix of done chunks, restored ones included: each chunk
/// that joins the prefix adds its trials and silent trials to the tally,
/// and the stop fires at the first prefix whose half-width meets the
/// threshold. A stopped campaign keeps that prefix and nothing after it.
class ConvergenceStop {
 public:
  using HalfWidth = std::function<double(long silent, long trials)>;

  /// A grid of `count` trials in chunks of `chunk`. `half_width` is in the
  /// units of `threshold`; a threshold <= 0 never fires, and the prefix
  /// still follows the done chunks in grid order.
  ConvergenceStop(std::size_t count, std::size_t chunk, double threshold,
                  HalfWidth half_width);

  /// Chunk c is done with `silent` silent trials. The prefix extends over
  /// the done chunks that now follow it, up to the first prefix that
  /// meets the threshold, and stays there once the stop has fired.
  void done(std::size_t c, long silent);

  /// Leading chunks the prefix covers.
  std::size_t prefix() const { return prefix_; }
  bool fired() const { return fired_; }

 private:
  std::size_t count_;
  std::size_t chunk_;
  double threshold_;
  HalfWidth half_width_;
  std::vector<char> done_;
  std::vector<long> silent_;
  std::size_t prefix_ = 0;
  long prefix_trials_ = 0;
  long prefix_silent_ = 0;
  bool fired_ = false;
};

/// run_unit_campaign with checkpoint/resume, budgets, and cancellation.
/// With a default-constructed control the tallies are bit-identical to the
/// legacy overload (the grid reduction replays the flat fault-list fold).
UnitSeuResult run_unit_campaign(units::UnitKind kind, fp::FpFormat fmt,
                                const units::UnitConfig& cfg,
                                const SeuCampaignConfig& camp,
                                const CampaignRunControl& control);

/// Configuration-memory upset-rate model: essential bits of the design's
/// footprint (fault::CramModel) struck at the raw CRAM rate, derated by
/// the probability the upset corrupts output before scrubbing repairs it
/// (fault::ScrubModel). A persistent fault that is scrubbed before the
/// kernel streams data contributes nothing.
struct CramRateModel {
  /// Raw configuration-cell upset rate, FIT per Mbit. CRAM cells are
  /// somewhat harder than user flip-flops on the same process.
  double fit_per_mbit = 150.0;
  fault::CramModel cram;
  fault::ScrubModel scrub;
  /// Mission length used when scrubbing is disabled (exposure = mission/2).
  double mission_s = 3600.0;

  /// Effective SDC FIT of configuration upsets for a design using `used`.
  double fit(const device::Resources& used) const {
    return fit_per_mbit * cram.essential_mbit(used) *
           scrub.observe_probability(mission_s);
  }
};

struct SeuDepthPoint {
  int stages = 0;
  double freq_mhz = 0.0;
  int pipeline_ffs = 0;
  long occupied_bits = 0;
  double avf = 0.0;
  double sdc_fraction = 0.0;
  double sdc_fit = 0.0;     ///< rate.fit(pipeline_ffs, avf), unhardened
  double tmr_area_x = 1.0;  ///< TMR area factor at this depth
};

/// Campaign at each requested depth (depths are clamped like UnitConfig).
/// The per-depth loop runs on camp.threads workers (each depth's inner
/// campaign is serial); every depth writes its own slot, so the sweep is
/// bit-identical at any thread count.
std::vector<SeuDepthPoint> seu_depth_sweep(units::UnitKind kind,
                                           fp::FpFormat fmt,
                                           const std::vector<int>& depths,
                                           const SeuCampaignConfig& camp,
                                           const SeuRateModel& rate = {});

/// Depth sweep with resilience: one grid chunk per depth (the sweep's
/// checkpoint granularity is a finished depth point, charged to the trial
/// budget as camp.faults inner trials). stop_half_width does not apply
/// here; checkpoint/resume/budgets/cancel do.
struct SeuSweepRun {
  std::vector<SeuDepthPoint> points;  ///< unfinished depths left zeroed
  std::vector<char> done;             ///< per-depth: restored or computed
  CampaignRunStatus run;
};
SeuSweepRun seu_depth_sweep(units::UnitKind kind, fp::FpFormat fmt,
                            const std::vector<int>& depths,
                            const SeuCampaignConfig& camp,
                            const SeuRateModel& rate,
                            const CampaignRunControl& control);

/// The paper's min/max/opt selection with a reliability constraint: opt
/// becomes the best freq/area design whose unhardened SDC FIT (pipeline
/// FFs x rate x avf_derate) stays within `max_fit`. When nothing
/// qualifies, the point with the minimum modelled FIT — the very quantity
/// the cap is expressed in — is returned and `feasible` is false. Both
/// overloads use that same fallback rule (the CRAM one over latch + CRAM
/// FIT).
struct ReliableSelection {
  Selection unconstrained;
  DesignPoint opt;
  double fit_at_opt = 0.0;       ///< total (latch + CRAM) FIT at opt
  double cram_fit_at_opt = 0.0;  ///< CRAM share of fit_at_opt
  bool feasible = false;
};

ReliableSelection select_min_max_opt_reliable(const SweepResult& sweep,
                                              double max_fit,
                                              const SeuRateModel& rate = {},
                                              double avf_derate = 1.0);

/// Same selection with the configuration-memory term included: a point
/// qualifies when latch FIT + CRAM FIT (over its full area footprint)
/// stays within `max_fit`. Shorter scrub periods shrink the CRAM term and
/// re-admit larger/faster designs — the trade the ext_cram_scrub bench
/// sweeps.
ReliableSelection select_min_max_opt_reliable(const SweepResult& sweep,
                                              double max_fit,
                                              const SeuRateModel& rate,
                                              double avf_derate,
                                              const CramRateModel& cram);

// --- kernel-level campaign ---------------------------------------------

struct MatmulSeuConfig {
  int n = 4;
  int faults = 24;
  std::uint64_t seed = 0x5eed;
  /// Fraction of faults aimed at PE BRAM accumulator words; the rest hit
  /// multiplier/adder stage latches.
  double accumulator_fraction = 0.5;
  /// Storage hardening: kEcc turns on PeConfig::ecc_accumulators (SECDED
  /// on the accumulator bank). Other schemes leave the kernel bare.
  fault::Scheme scheme = fault::Scheme::kNone;
  /// Additionally inject round(config_fraction * faults) persistent
  /// configuration upsets (FaultSite::kConfig) into unit stage logic.
  /// 0 keeps the campaign (and its RNG draw sequence) exactly legacy.
  double config_fraction = 0.0;
  /// Scrub period for those config upsets, in kernel cycles; a struck
  /// piece repairs at the next scrub boundary. <= 0: persists all run.
  long scrub_period_cycles = 0;
  /// Worker threads for the golden pass (PEs split across workers) and
  /// the per-fault loop, where each reference worker keeps one clone of
  /// the array's PE for the whole campaign. 0 = auto
  /// (FLOPSIM_THREADS, then hardware_concurrency); 1 = serial. Tallies
  /// reduce in fault-list order: bit-identical at any thread count.
  int threads = 0;
  /// Requested evaluation backend; kAuto resolves like the unit campaign's.
  /// kCompiled and kBitsliced take the kernel fast path
  /// (kernel::MatmulReplay), which steps no PE: the golden pass walks each
  /// accumulate through its units, and a trial re-walks only the
  /// accumulates its upset reaches, through the fault's injector.
  /// kInterpreted, the reference, re-steps only the struck PE through its
  /// whole schedule, clock by clock: PE j owns column j of C and raises
  /// its own flags, so the other PEs hold their golden state. Both give
  /// bit-identical tallies and checkpoint bytes.
  rtl::EvalBackend backend = rtl::EvalBackend::kAuto;
};

struct MatmulSeuResult {
  int injected = 0;
  int masked = 0;
  int detected = 0;   ///< ECC double-error raised (corrupted but flagged)
  int corrected = 0;  ///< ECC repaired the upset; output clean
  int silent = 0;  ///< result matrix or flags corrupted, no error signal
  // Per-site breakdown (injected/silent pairs).
  int acc_injected = 0;
  int acc_silent = 0;
  int latch_injected = 0;
  int latch_silent = 0;
  int config_injected = 0;
  int config_silent = 0;
  /// Trials dropped because a single-fault draw stayed empty through every
  /// redraw — each one shrinks the campaign below `faults` and skews the
  /// site mix, so runners surface this in their end-of-run summary.
  int draws_exhausted = 0;
  CampaignRunStatus run;
  double sdc_fraction() const {
    return injected > 0 ? static_cast<double>(silent) / injected : 0.0;
  }
};

/// Single-fault campaign over the linear-array matmul kernel: the oracle
/// is the clean cycle-accurate run (itself pinned bit-for-bit to
/// reference_gemm by the kernel tests).
MatmulSeuResult run_matmul_campaign(const kernel::PeConfig& cfg,
                                    const MatmulSeuConfig& camp);

/// run_matmul_campaign with checkpoint/resume, budgets, and cancellation;
/// stop_half_width is in SDC-fraction units here.
MatmulSeuResult run_matmul_campaign(const kernel::PeConfig& cfg,
                                    const MatmulSeuConfig& camp,
                                    const CampaignRunControl& control);

}  // namespace flopsim::analysis
