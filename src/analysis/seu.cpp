#include "analysis/seu.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <utility>

#include "exec/parallel.hpp"
#include "fault/checkpoint.hpp"
#include "lint/probe.hpp"
#include "obs/probe.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"

namespace flopsim::analysis {

namespace {

bool same_output(const std::optional<units::UnitOutput>& a,
                 const std::optional<units::UnitOutput>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return a->result == b->result && a->flags == b->flags;
}

// A trial's verdict is one byte, written by whichever worker owns the
// trial into the campaign's slot vector and reduced in fault-list order
// afterwards. The slots ARE the sidecar bytes: changing these bits
// invalidates existing sidecars (bump the spec-hash salt below if they
// ever have to change).
constexpr std::uint8_t kCorrupted = 1;        // output differs from golden
constexpr std::uint8_t kHardenedDiffers = 2;  // unit: post-voter one too
constexpr std::uint8_t kMismatch = 4;         // unit: a checker fired
constexpr std::uint8_t kEccDetected = 2;      // kernel: ECC flagged it
constexpr std::uint8_t kEccCorrected = 4;     // kernel: ECC repaired it

/// kCorrupted plus the campaign's two flags (unit: kHardenedDiffers,
/// kMismatch; kernel: kEccDetected, kEccCorrected).
std::uint8_t verdict(bool corrupted, bool flag2, bool flag4) {
  return static_cast<std::uint8_t>((corrupted ? kCorrupted : 0) |
                                   (flag2 ? 2 : 0) | (flag4 ? 4 : 0));
}

/// Whether a unit trial reduces to "silent" under the campaign's scheme —
/// factored out so the running convergence tally cannot drift from the
/// final ordered reduction.
bool unit_trial_silent(std::uint8_t v, fault::Scheme scheme) {
  if (scheme == fault::Scheme::kTmr) return (v & kHardenedDiffers) != 0;
  return (v & kCorrupted) != 0 && (v & kMismatch) == 0;
}

// --- upset-replay fast path ---------------------------------------------

/// Whether the upset-replay engine's guarantees cover this campaign:
/// every fault a one-shot data-lane latch flip, and the chain free of the
/// behaviours (DONE writes, nondeterminism) that make the scheme mapping
/// below unsound. Anything else runs interpreted.
bool fast_path_covers(const std::vector<fault::Fault>& faults,
                      const lint::ChainGuards& guards) {
  if (guards.writes_valid || guards.nondeterministic) return false;
  for (const fault::Fault& f : faults) {
    if (f.site != fault::FaultSite::kStageLatch || f.lane < 0 ||
        f.lane >= rtl::kMaxSignals || f.bit < 0 || f.bit >= 64) {
      return false;
    }
  }
  return true;
}

/// Map an engine verdict onto the scheme-aware trial the legacy
/// HardenedUnit loop produces — the exact per-scheme truth table, byte
/// for byte (these bytes ARE the checkpoint format):
///  * kNone / kEcc  — no checker; the hardened output is copy 0's.
///  * kParity       — the per-stage parity checker fires on every applied
///                    flip (single-bit upsets always have odd weight),
///                    struck or bubble alike.
///  * kResidue      — the mod-3 checker fires only when the corruption
///                    reaches the result significand of a valid output.
///  * kDuplicate    — compare-against-clean-copy: fires iff observables
///                    differ.
///  * kTmr          — the voter outvotes the single struck copy, so the
///                    hardened output never differs; disagreement shows up
///                    as a mismatch.
std::uint8_t map_fast_trial(const rtl::UpsetTrial& t, fault::Scheme scheme,
                            fp::u64 clean_result, fp::u64 frac_mask) {
  bool hardened_differs = t.corrupted;
  bool mismatch = false;
  switch (scheme) {
    case fault::Scheme::kNone:
    case fault::Scheme::kEcc:
      break;
    case fault::Scheme::kParity:
      mismatch = true;
      break;
    case fault::Scheme::kResidue:
      mismatch = t.struck && t.valid &&
                 ((t.result ^ clean_result) & frac_mask) != 0;
      break;
    case fault::Scheme::kDuplicate:
      mismatch = t.corrupted;
      break;
    case fault::Scheme::kTmr:
      hardened_differs = false;
      mismatch = t.corrupted;
      break;
  }
  return verdict(t.corrupted, hardened_differs, mismatch);
}

void fold_fault(fault::SpecHash& h, const fault::Fault& f) {
  h.i64(f.cycle)
      .i64(static_cast<long long>(f.site))
      .i64(f.index)
      .i64(f.lane)
      .i64(f.bit)
      .u64(f.mask)
      .u64(f.stuck)
      .i64(f.repair_cycle);
}

/// The campaign-specific half of a checkpointed grid run: the grid's
/// shape, the sidecar key, and how to read a slot for the convergence
/// stop. Every grid position owns `slot_bytes` bytes of the driver's slot
/// vector, and those bytes are its sidecar bytes.
struct CheckpointedGrid {
  std::size_t count = 0;        ///< grid positions (trials, or depths)
  std::size_t chunk = 1;        ///< positions per grid chunk
  std::size_t slot_bytes = 1;   ///< sidecar bytes per position
  long trials_per_position = 1;  ///< what one position charges the budget
  int threads = 0;
  const char* progress = nullptr;  ///< progress label; nullptr = none
  /// The campaign spec's hash: called only when a sidecar opens, so a
  /// campaign without a checkpoint directory never pays for it.
  std::function<std::uint64_t()> spec_key;
  /// Whether a trial's byte is silent, and the half-width of `silent` out
  /// of `trials` in the units of stop_half_width. Unset: no early stop.
  std::function<bool(std::uint8_t)> silent;
  std::function<double(long silent, long trials)> half_width;
};

/// Run `body` over the grid under the control's checkpoint, cancellation,
/// trial budget and convergence stop: open (and on resume restore) the
/// sidecar, skip the restored chunks, append the finished chunks in grid
/// order, and fill `status` plus the campaign.chunks.* /
/// campaign.interrupted counters. Restored slots are filled before the
/// grid runs; `body` fills the rest. The returned done flags are the
/// chunks the campaign tallies. A sidecar whose header names another
/// campaign throws.
exec::GridResult run_checkpointed_grid(const CampaignRunControl& ctl,
                                       const CheckpointedGrid& g,
                                       std::vector<std::uint8_t>& slots,
                                       const exec::ThreadPool::ChunkFn& body,
                                       CampaignRunStatus& status) {
  const std::size_t nchunks = exec::grid_chunk_count(g.count, 1, g.chunk);
  const bool converge = ctl.stop_half_width > 0.0 && g.silent != nullptr;
  const auto positions = [&](std::size_t c) {
    return std::min(g.count, (c + 1) * g.chunk) - c * g.chunk;
  };
  const auto silent_in = [&](std::size_t c) {
    long silent = 0;
    if (converge) {
      for (std::size_t i = c * g.chunk; i < c * g.chunk + positions(c); ++i) {
        if (g.silent(slots[i])) ++silent;
      }
    }
    return silent;
  };
  ConvergenceStop stop(g.count, g.chunk, converge ? ctl.stop_half_width : 0.0,
                       g.half_width);

  std::vector<char> restored(nchunks, 0);
  long restored_positions = 0;
  std::optional<fault::CheckpointWriter> writer;
  if (!ctl.checkpoint_dir.empty() && g.count > 0) {
    const std::uint64_t key = g.spec_key();
    const std::string path = fault::checkpoint_path(ctl.checkpoint_dir, key);
    fault::CheckpointLoad load;
    if (ctl.resume) {
      load = fault::load_checkpoint(path, g.slot_bytes);
      if (load.found && (load.spec_hash != key || load.count != g.count ||
                         load.chunk != g.chunk)) {
        throw std::runtime_error(
            "checkpoint " + path +
            " was written by a different campaign (spec/count/chunk "
            "mismatch); refusing to mix tallies");
      }
      for (const auto& [index, data] : load.chunks) {
        std::copy(data.begin(), data.end(),
                  slots.begin() + static_cast<std::ptrdiff_t>(
                                      index * g.chunk * g.slot_bytes));
        restored[index] = 1;
        restored_positions += static_cast<long>(positions(index));
      }
    }
    // Appends go after the restored lines; anything past them is cut.
    writer.emplace(path, key, g.count, g.chunk, ctl.fsync_interval, load);
  }
  // Restored chunks join the prefix first: a resumed campaign's stop sees
  // the whole sample, and may fire before anything runs.
  for (std::size_t c = 0; c < nchunks; ++c) {
    if (restored[c] != 0) stop.done(c, silent_in(c));
  }
  // The trial budget is the first not-restored chunks, in grid order,
  // whose trials cover it.
  std::size_t run_limit = nchunks;
  if (ctl.trial_budget > 0) {
    long covered = 0;
    for (std::size_t c = 0; c < nchunks && covered < ctl.trial_budget; ++c) {
      if (restored[c] != 0) continue;
      covered += static_cast<long>(positions(c)) * g.trials_per_position;
      run_limit = c + 1;
    }
  }

  exec::CancelToken local_token;
  exec::CancelToken* cancel =
      ctl.cancel != nullptr ? ctl.cancel : &local_token;
  if (stop.fired()) cancel->request(exec::CancelToken::Reason::kConverged);
  std::optional<obs::ProgressReporter> progress;
  if (g.progress != nullptr) {
    progress.emplace(g.progress, static_cast<long>(g.count));
    // Restored trials count as already-done progress.
    if (restored_positions > 0) progress->tick(restored_positions);
  }

  // Chunks go to the sidecar as they join the prefix, so in grid order
  // and never past a fired stop.
  std::size_t handed = 0;
  const auto append = [&](std::size_t c) {
    if (writer && restored[c] == 0) {
      writer->append(c, std::span<const std::uint8_t>(slots).subspan(
                            c * g.chunk * g.slot_bytes,
                            positions(c) * g.slot_bytes));
    }
  };
  exec::GridOptions opts;
  opts.chunk = g.chunk;
  opts.skip = &restored;
  opts.run_limit = run_limit;
  opts.cancel = cancel;
  opts.on_chunk_done = [&](std::size_t c, std::size_t begin,
                           std::size_t end) {
    if (progress) progress->tick(static_cast<long>(end - begin));
    stop.done(c, silent_in(c));
    for (; handed < stop.prefix(); ++handed) append(handed);
    if (stop.fired()) cancel->request(exec::CancelToken::Reason::kConverged);
  };
  exec::GridResult grid =
      exec::parallel_for_grid(g.count, g.threads, body, opts);
  if (stop.fired()) {
    // Chunks past the stop that finished anyway are neither tallied nor
    // written.
    std::fill(grid.done.begin() + static_cast<std::ptrdiff_t>(stop.prefix()),
              grid.done.end(), 0);
  } else {
    // A cancelled grid: the finished chunks past a gap, in index order
    // (the gaps are the chunks a resume re-runs).
    for (; handed < nchunks; ++handed) {
      if (grid.done[handed] != 0) append(handed);
    }
  }
  writer.reset();  // fsync and close

  grid.completed = 0;
  grid.skipped = 0;
  long executed = 0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    if (grid.done[c] == 0) continue;
    if (restored[c] != 0) {
      ++grid.skipped;
    } else {
      ++grid.completed;
      executed += static_cast<long>(positions(c)) * g.trials_per_position;
    }
  }
  if (ctl.trial_budget > 0 && executed >= ctl.trial_budget) {
    cancel->request(exec::CancelToken::Reason::kTrialBudget);
  }
  status.chunks_total = static_cast<long>(grid.chunks);
  status.chunks_completed = static_cast<long>(grid.completed);
  status.chunks_restored = static_cast<long>(grid.skipped);
  status.trials_executed = executed;
  status.interrupted = !grid.complete();
  status.stop_reason = cancel->reason();
  obs::Registry& reg = obs::Registry::global();
  reg.counter("campaign.chunks.completed")
      .add(static_cast<long>(grid.completed));
  reg.counter("campaign.chunks.restored").add(status.chunks_restored);
  if (status.interrupted) reg.counter("campaign.interrupted").inc();
  return grid;
}

}  // namespace

ConvergenceStop::ConvergenceStop(std::size_t count, std::size_t chunk,
                                 double threshold, HalfWidth half_width)
    : count_(count),
      chunk_(chunk),
      threshold_(threshold),
      half_width_(std::move(half_width)),
      done_(exec::grid_chunk_count(count, 1, chunk), 0),
      silent_(done_.size(), 0) {}

void ConvergenceStop::done(std::size_t c, long silent) {
  done_.at(c) = 1;
  silent_[c] = silent;
  while (!fired_ && prefix_ < done_.size() && done_[prefix_] != 0) {
    prefix_trials_ += static_cast<long>(
        std::min(count_, (prefix_ + 1) * chunk_) - prefix_ * chunk_);
    prefix_silent_ += silent_[prefix_];
    ++prefix_;
    fired_ = threshold_ > 0.0 &&
             half_width_(prefix_silent_, prefix_trials_) <= threshold_;
  }
}

double proportion_half_width(long successes, long n) {
  if (n <= 0) return 0.0;
  // Agresti-Coull adjustment: the plain normal approximation collapses to
  // a zero half-width at p == 0 or 1, which would trip any convergence
  // threshold after one all-masked chunk. p~ = (s+2)/(n+4) never does.
  const double nt = static_cast<double>(n) + 4.0;
  const double p = (static_cast<double>(successes) + 2.0) / nt;
  return 1.96 * std::sqrt(p * (1.0 - p) / nt);
}

UnitSeuResult run_unit_campaign(units::UnitKind kind, fp::FpFormat fmt,
                                const units::UnitConfig& cfg,
                                const SeuCampaignConfig& camp) {
  return run_unit_campaign(kind, fmt, cfg, camp, CampaignRunControl{});
}

UnitSeuResult run_unit_campaign(units::UnitKind kind, fp::FpFormat fmt,
                                const units::UnitConfig& cfg,
                                const SeuCampaignConfig& camp,
                                const CampaignRunControl& control) {
  UnitSeuResult res;
  obs::Tracer& tracer = obs::Tracer::global();
  obs::Registry& reg = obs::Registry::global();
  auto campaign_span = tracer.span("unit_campaign", "campaign");
  const rtl::EvalBackend backend = rtl::resolve_backend(camp.backend);

  // The clean reference: the probe unit, the workload and one clean run
  // of it, which records everything the rest of the campaign reads — the
  // golden outputs, the occupied-bit profile the faults are drawn from,
  // and (for the compiled and bitsliced backends) the stage-boundary
  // states the upset-replay engine replays from.
  auto golden_span = tracer.span("golden", "campaign");
  units::FpUnit probe = [&] {
    auto build_span = tracer.span("unit_build", "campaign");
    return units::FpUnit(kind, fmt, cfg);
  }();
  const int horizon = camp.vectors + probe.latency() + 2;
  const std::vector<units::UnitInput> workload =
      fault::campaign_workload(kind, fmt, camp.vectors, camp.seed);
  const fault::CleanUnitRun clean = fault::record_clean_unit_run(
      probe, workload, horizon, backend != rtl::EvalBackend::kInterpreted);
  golden_span.end();
  // Occupancy of the clean pipeline over the campaign workload, recorded
  // on the caller's thread (thread-count-invariant by construction).
  obs::record_unit_occupancy(
      reg,
      std::string("pipeline.") + units::to_string(kind) + "." + fmt.name(),
      probe);

  auto draw_span = tracer.span("draw", "campaign");
  res.occupied_bits = clean.profile.total_bits();
  res.pipeline_ffs = probe.area().pipeline_ffs;

  // The whole fault list is drawn before any trial runs: the determinism
  // anchor. Every trial is a pure function of (fault, golden, workload).
  const fault::ProfileSites sites(clean.profile);
  fault::CampaignSpec draw_spec;
  draw_spec.source = fault::CampaignSpec::Source::kRandom;
  draw_spec.sites = &sites;
  draw_spec.horizon = horizon;
  draw_spec.count = camp.faults;
  draw_spec.seed = camp.seed + 1;
  const fault::FaultCampaign campaign = fault::FaultCampaign::make(draw_spec);
  const std::vector<fault::Fault>& faults = campaign.faults();
  std::vector<std::uint8_t> slots(faults.size());  // sidecar byte per trial
  draw_span.end();

  // A profile with no occupied sites yields a short (or empty) fault list:
  // the campaign silently runs fewer trials than requested. Account for
  // the shortfall the same way the matmul campaign accounts its dropped
  // redraws, so /metrics and BENCH records can surface it.
  if (static_cast<int>(faults.size()) < camp.faults) {
    const long dropped =
        static_cast<long>(camp.faults) - static_cast<long>(faults.size());
    reg.counter("campaign.unit.dropped_trials").add(dropped);
    std::fprintf(stderr,
                 "warning: unit campaign: dropped %ld of %d trials (no "
                 "occupied fault sites to draw)\n",
                 dropped, camp.faults);
  }

  // Backend selection: compiled and bitsliced requests replay each upset
  // on the upset-replay engine (one, shared by the workers) where its
  // guarantees hold (fast_path_covers, from the lint guard walk: each
  // piece's baseline eval and identical rerun over the workload);
  // everything else — and every kInterpreted request — runs the legacy
  // HardenedUnit loop. Tallies and checkpoint bytes are backend-invariant,
  // which is why the backend never folds into the spec hash below.
  bool fast = false;
  if (backend != rtl::EvalBackend::kInterpreted && !faults.empty()) {
    auto compile_span = tracer.span("compile", "evaluator",
                                    {{"stages", probe.stages()}});
    lint::ChainContract contract;
    contract.input_lanes = {units::detail::kLaneInA, units::detail::kLaneInB,
                            units::detail::kLaneInCtl, units::detail::kLaneInC};
    contract.result_lane = units::detail::kLaneResult;
    contract.stimuli = clean.clean->inputs;
    fast = fast_path_covers(
        faults,
        lint::infer_chain_guards(probe.pieces(), contract, lint::Options{}));
    compile_span.end();
    if (!fast) reg.counter("campaign.unit.backend_fallback").inc();
  }

  // Static checkpoint grid: boundaries depend only on (count, chunk), so
  // a resume at a different thread count re-runs the same chunks.
  CheckpointedGrid grid_spec;
  grid_spec.count = faults.size();
  grid_spec.chunk = control.chunk_trials > 0 ? control.chunk_trials : 16;
  grid_spec.threads = exec::resolve_threads(camp.threads);
  grid_spec.progress = "unit campaign";
  // Campaign identity: everything the trial outcomes are a function of,
  // including the drawn fault list itself (the strongest possible key).
  grid_spec.spec_key = [&] {
    fault::SpecHash spec;
    spec.str("unit_campaign v1");
    spec.str(units::to_string(kind)).str(fmt.name());
    spec.i64(probe.stages());
    spec.i64(static_cast<long long>(camp.scheme));
    spec.i64(camp.vectors).i64(camp.faults).u64(camp.seed).i64(horizon);
    spec.i64(static_cast<long long>(cfg.rounding))
        .i64(static_cast<long long>(cfg.objective))
        .i64(cfg.ieee_mode ? 1 : 0)
        .i64(cfg.use_embedded_multipliers ? 1 : 0);
    spec.i64(static_cast<long long>(grid_spec.chunk));
    spec.i64(static_cast<long long>(grid_spec.count));
    for (const fault::Fault& f : faults) fold_fault(spec, f);
    return spec.value();
  };
  grid_spec.silent = [&](std::uint8_t v) {
    return unit_trial_silent(v, camp.scheme);
  };
  grid_spec.half_width = [&](long silent, long trials) {
    return control.rate.fit(res.pipeline_ffs,
                            proportion_half_width(silent, trials));
  };

  auto inject_span = tracer.span("inject", "campaign");
  // The hardened copies step only on the interpreted path; the
  // upset-replay engine runs every trial without them.
  std::optional<fault::HardenedUnit> proto;
  if (!fast) proto.emplace(kind, fmt, cfg, camp.scheme);
  const fp::u64 frac_mask = fmt.frac_mask();
  // Compiled / bitsliced fast path: one engine, shared by every worker.
  std::optional<rtl::Evaluator> engine;
  if (fast) {
    engine.emplace(probe.pieces(), probe.plan(), units::detail::kLaneResult,
                   clean.clean);
  }
  const exec::GridResult grid = run_checkpointed_grid(
      control, grid_spec, slots,
      [&](int, std::size_t begin, std::size_t end) {
        if (fast) {
          const rtl::CleanRun& run = *clean.clean;
          for (std::size_t i = begin; i < end; ++i) {
            const fault::Fault& f = faults[i];
            const rtl::LatchUpset upset{f.cycle, f.index, f.lane, f.bit};
            rtl::UpsetTrial v;
            engine->trials(&upset, &v, 1);
            const fp::u64 clean_result =
                v.struck ? run.state(static_cast<int>(f.cycle - f.index),
                                     run.stages - 1)
                               .lane[units::detail::kLaneResult]
                         : 0;
            slots[i] = map_fast_trial(v, camp.scheme, clean_result, frac_mask);
          }
          return;
        }
        fault::HardenedUnit hardened = proto->clone();
        for (std::size_t i = begin; i < end; ++i) {
          hardened.reset();
          hardened.arm(fault::FaultCampaign::from_list({faults[i]}));
          std::uint8_t& v = slots[i];
          for (int t = 0; t < horizon; ++t) {
            const fault::HardenedUnit::Output out = hardened.step(
                t < camp.vectors ? std::optional<units::UnitInput>(
                                       workload[static_cast<std::size_t>(t)])
                                 : std::nullopt);
            const std::optional<units::UnitOutput>& g =
                clean.golden[static_cast<std::size_t>(t)];
            v |= verdict(!same_output(out.raw, g), !same_output(out.out, g),
                         out.mismatch);
          }
          hardened.disarm();
        }
      },
      res.run);
  inject_span.end();

  // Ordered reduction: fault-list order, never worker-arrival order. Only
  // accounted (run or restored) chunks contribute — with every chunk done
  // this is exactly the legacy flat fold over the fault list.
  auto reduce_span = tracer.span("reduce", "campaign");
  for (std::size_t c = 0; c < grid.chunks; ++c) {
    if (grid.done[c] == 0) continue;
    const std::size_t begin = c * grid_spec.chunk;
    const std::size_t end =
        std::min(grid_spec.count, begin + grid_spec.chunk);
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint8_t v = slots[i];
      ++res.injected;
      if ((v & kCorrupted) != 0) ++res.corrupted;
      if (unit_trial_silent(v, camp.scheme)) {
        ++res.silent;
      } else if (camp.scheme == fault::Scheme::kTmr) {
        if ((v & kCorrupted) != 0) {
          ++res.corrected;
        } else {
          ++res.masked;
        }
      } else if ((v & kMismatch) != 0) {
        ++res.detected;
      } else {
        ++res.masked;
      }
    }
  }
  reduce_span.end();

  reg.counter("campaign.unit.trials").add(res.injected);
  reg.counter("campaign.unit.corrupted").add(res.corrupted);
  reg.counter("campaign.unit.masked").add(res.masked);
  reg.counter("campaign.unit.detected").add(res.detected);
  reg.counter("campaign.unit.corrected").add(res.corrected);
  reg.counter("campaign.unit.silent").add(res.silent);
  return res;
}

std::vector<SeuDepthPoint> seu_depth_sweep(units::UnitKind kind,
                                           fp::FpFormat fmt,
                                           const std::vector<int>& depths,
                                           const SeuCampaignConfig& camp,
                                           const SeuRateModel& rate) {
  return seu_depth_sweep(kind, fmt, depths, camp, rate, CampaignRunControl{})
      .points;
}

namespace {

// A finished depth point is the sweep's checkpoint unit: 8 little-endian
// 64-bit words (ints widened, doubles bit-cast), so restore is exact.
constexpr std::size_t kDepthPointBytes = 64;

void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xffu);
  }
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

void encode_depth_point(const SeuDepthPoint& p, std::uint8_t* out) {
  put_u64(out, static_cast<std::uint64_t>(static_cast<std::int64_t>(p.stages)));
  put_u64(out + 8, std::bit_cast<std::uint64_t>(p.freq_mhz));
  put_u64(out + 16, static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(p.pipeline_ffs)));
  put_u64(out + 24, static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(p.occupied_bits)));
  put_u64(out + 32, std::bit_cast<std::uint64_t>(p.avf));
  put_u64(out + 40, std::bit_cast<std::uint64_t>(p.sdc_fraction));
  put_u64(out + 48, std::bit_cast<std::uint64_t>(p.sdc_fit));
  put_u64(out + 56, std::bit_cast<std::uint64_t>(p.tmr_area_x));
}

SeuDepthPoint decode_depth_point(const std::uint8_t* data) {
  SeuDepthPoint p;
  p.stages = static_cast<int>(static_cast<std::int64_t>(get_u64(&data[0])));
  p.freq_mhz = std::bit_cast<double>(get_u64(&data[8]));
  p.pipeline_ffs =
      static_cast<int>(static_cast<std::int64_t>(get_u64(&data[16])));
  p.occupied_bits =
      static_cast<long>(static_cast<std::int64_t>(get_u64(&data[24])));
  p.avf = std::bit_cast<double>(get_u64(&data[32]));
  p.sdc_fraction = std::bit_cast<double>(get_u64(&data[40]));
  p.sdc_fit = std::bit_cast<double>(get_u64(&data[48]));
  p.tmr_area_x = std::bit_cast<double>(get_u64(&data[56]));
  return p;
}

}  // namespace

SeuSweepRun seu_depth_sweep(units::UnitKind kind, fp::FpFormat fmt,
                            const std::vector<int>& depths,
                            const SeuCampaignConfig& camp,
                            const SeuRateModel& rate,
                            const CampaignRunControl& control) {
  auto sweep_span =
      obs::Tracer::global().span("seu_depth_sweep", "campaign");
  CheckpointedGrid grid_spec;
  grid_spec.count = depths.size();
  grid_spec.chunk = 1;  // one depth = one recoverable unit
  grid_spec.slot_bytes = kDepthPointBytes;
  grid_spec.trials_per_position = camp.faults;
  grid_spec.threads = camp.threads;
  grid_spec.spec_key = [&] {
    fault::SpecHash spec;
    spec.str("seu_depth_sweep v1");
    spec.str(units::to_string(kind)).str(fmt.name());
    spec.i64(camp.vectors).i64(camp.faults).u64(camp.seed);
    spec.f64(rate.fit_per_mbit);
    spec.i64(static_cast<long long>(grid_spec.count));
    for (const int d : depths) spec.i64(d);
    return spec.value();
  };

  // Every slot starts as an unfinished (zeroed) point and stays one
  // unless its depth is restored or computed.
  std::vector<std::uint8_t> slots(depths.size() * kDepthPointBytes);
  for (std::size_t i = 0; i < depths.size(); ++i) {
    encode_depth_point(SeuDepthPoint{}, &slots[i * kDepthPointBytes]);
  }
  SeuSweepRun out;
  const exec::GridResult grid = run_checkpointed_grid(
      control, grid_spec, slots,
      [&](int /*worker*/, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          units::UnitConfig cfg;
          cfg.stages = depths[i];
          SeuCampaignConfig c = camp;
          c.scheme = fault::Scheme::kNone;
          c.threads = 1;  // the depth grid is the parallel axis here
          const UnitSeuResult r = run_unit_campaign(kind, fmt, cfg, c);
          const units::FpUnit unit(kind, fmt, cfg);
          SeuDepthPoint p;
          p.stages = unit.stages();
          p.freq_mhz = unit.timing().freq_mhz;
          p.pipeline_ffs = r.pipeline_ffs;
          p.occupied_bits = r.occupied_bits;
          p.avf = r.avf();
          p.sdc_fraction = r.sdc_fraction();
          p.sdc_fit = rate.fit(r.pipeline_ffs, r.avf());
          p.tmr_area_x =
              fault::hardening_cost(unit, fault::Scheme::kTmr).area_factor;
          encode_depth_point(p, &slots[i * kDepthPointBytes]);
        }
      },
      out.run);
  for (std::size_t i = 0; i < depths.size(); ++i) {
    out.points.push_back(decode_depth_point(&slots[i * kDepthPointBytes]));
  }
  out.done = grid.done;
  return out;
}

ReliableSelection select_min_max_opt_reliable(const SweepResult& sweep,
                                              double max_fit,
                                              const SeuRateModel& rate,
                                              double avf_derate) {
  ReliableSelection sel;
  sel.unconstrained = select_min_max_opt(sweep);
  const DesignPoint* best = nullptr;
  const DesignPoint* least_vulnerable = nullptr;
  double least_fit = 0.0;
  for (const DesignPoint& p : sweep.points) {
    const double fit = rate.fit(p.pipeline_ffs, avf_derate);
    // Infeasible fallback: minimum modelled FIT — the quantity the cap is
    // expressed in (mirrors the CRAM overload below).
    if (least_vulnerable == nullptr || fit < least_fit) {
      least_vulnerable = &p;
      least_fit = fit;
    }
    if (fit <= max_fit &&
        (best == nullptr || p.freq_per_area > best->freq_per_area)) {
      best = &p;
    }
  }
  if (best != nullptr) {
    sel.opt = *best;
    sel.feasible = true;
  } else if (least_vulnerable != nullptr) {
    sel.opt = *least_vulnerable;
  }
  sel.fit_at_opt = rate.fit(sel.opt.pipeline_ffs, avf_derate);
  return sel;
}

ReliableSelection select_min_max_opt_reliable(const SweepResult& sweep,
                                              double max_fit,
                                              const SeuRateModel& rate,
                                              double avf_derate,
                                              const CramRateModel& cram) {
  ReliableSelection sel;
  sel.unconstrained = select_min_max_opt(sweep);
  const auto total_fit = [&](const DesignPoint& p) {
    return rate.fit(p.pipeline_ffs, avf_derate) + cram.fit(p.area);
  };
  const DesignPoint* best = nullptr;
  const DesignPoint* least_vulnerable = nullptr;
  double least_fit = 0.0;
  for (const DesignPoint& p : sweep.points) {
    const double fit = total_fit(p);
    if (least_vulnerable == nullptr || fit < least_fit) {
      least_vulnerable = &p;
      least_fit = fit;
    }
    if (fit <= max_fit &&
        (best == nullptr || p.freq_per_area > best->freq_per_area)) {
      best = &p;
    }
  }
  if (best != nullptr) {
    sel.opt = *best;
    sel.feasible = true;
  } else if (least_vulnerable != nullptr) {
    sel.opt = *least_vulnerable;
  }
  sel.cram_fit_at_opt = cram.fit(sel.opt.area);
  sel.fit_at_opt =
      rate.fit(sel.opt.pipeline_ffs, avf_derate) + sel.cram_fit_at_opt;
  return sel;
}

namespace {

// One kernel-campaign fault: which PE, which structure inside it.
struct PeFault {
  int pe = 0;
  enum Target {
    kMultLatch,
    kAddLatch,
    kAccumulator,
    kConfigMult,  ///< persistent config upset in the multiplier's logic
    kConfigAdd,   ///< persistent config upset in the adder's logic
  } target = kAccumulator;
  fault::Fault fault;
};

/// The PE unit a latch or configuration upset of `target` strikes.
kernel::PeUnit struck_unit(PeFault::Target target) {
  return target == PeFault::kMultLatch || target == PeFault::kConfigMult
             ? kernel::PeUnit::kMultiplier
             : kernel::PeUnit::kAdder;
}

/// Attach the trial's injector (nullptr detaches) to the structure
/// `target` names inside `pe`.
void attach_fault(kernel::ProcessingElement& pe, PeFault::Target target,
                  fault::FaultInjector* injector) {
  switch (target) {
    case PeFault::kMultLatch:
    case PeFault::kConfigMult:
      pe.multiplier().set_latch_observer(injector);
      break;
    case PeFault::kAddLatch:
    case PeFault::kConfigAdd:
      pe.adder().set_latch_observer(injector);
      break;
    case PeFault::kAccumulator:
      pe.set_storage_observer(injector);
      break;
  }
}

// A single-fault draw can come back empty (the sampled profile exposes no
// occupied site for that source); the legacy loop silently dropped the
// trial, so the campaign ran fewer than camp.faults faults and the
// accumulator/config fractions drifted from spec. Redraw with the next
// rng() seed until non-empty — bounded, and consuming extra draws only on
// the empty path, so a campaign whose draws all land keeps the legacy
// sequence bit for bit.
constexpr int kMaxRedraws = 16;

template <typename DrawFn>
fault::FaultCampaign redraw_until_nonempty(std::mt19937_64& rng,
                                           const DrawFn& draw) {
  fault::FaultCampaign c = draw(rng());
  for (int retry = 0; c.empty() && retry < kMaxRedraws; ++retry) {
    c = draw(rng());
  }
  return c;
}

}  // namespace

MatmulSeuResult run_matmul_campaign(const kernel::PeConfig& cfg,
                                    const MatmulSeuConfig& camp) {
  return run_matmul_campaign(cfg, camp, CampaignRunControl{});
}

MatmulSeuResult run_matmul_campaign(const kernel::PeConfig& cfg,
                                    const MatmulSeuConfig& camp,
                                    const CampaignRunControl& control) {
  MatmulSeuResult res;
  obs::Tracer& tracer = obs::Tracer::global();
  obs::Registry& reg = obs::Registry::global();
  auto campaign_span = tracer.span("matmul_campaign", "campaign");
  const int n = camp.n;
  std::mt19937_64 rng(camp.seed);
  // Compiled and bitsliced requests walk only the accumulates an upset
  // reaches (the kernel fast path); kInterpreted re-steps the struck PE
  // through its whole schedule, the reference the fast path is checked
  // against.
  const bool replay_pe =
      rtl::resolve_backend(camp.backend) != rtl::EvalBackend::kInterpreted;
  // Resolved once: the per-worker slots below are indexed by worker.
  const int threads = exec::resolve_threads(camp.threads);

  kernel::PeConfig pe_cfg = cfg;
  pe_cfg.ecc_accumulators = camp.scheme == fault::Scheme::kEcc;

  // Deterministic operands with magnitudes near 1 so products stay finite.
  std::vector<double> av, bv;
  av.reserve(static_cast<std::size_t>(n) * n);
  bv.reserve(static_cast<std::size_t>(n) * n);
  for (int i = 0; i < n * n; ++i) {
    av.push_back((static_cast<double>(rng() % 2001) - 1000.0) / 499.0);
    bv.push_back((static_cast<double>(rng() % 2001) - 1000.0) / 499.0);
  }
  const kernel::Matrix a = kernel::matrix_from_doubles(av, n, cfg.fmt);
  const kernel::Matrix b = kernel::matrix_from_doubles(bv, n, cfg.fmt);

  // One shared golden run; every trial compares against it. The fast path
  // records it PE by PE across the workers, logging each PE's accumulates.
  auto golden_span = tracer.span("golden", "campaign");
  kernel::LinearArrayMatmul array(n, pe_cfg);
  std::optional<kernel::MatmulReplay> replay;
  if (replay_pe) {
    replay.emplace(array, a, b);
    exec::parallel_for_grid(
        static_cast<std::size_t>(n), threads,
        [&](int /*worker*/, std::size_t begin, std::size_t end) {
          for (std::size_t j = begin; j < end; ++j) {
            replay->record(static_cast<int>(j));
          }
        });
  }
  const kernel::MatmulRun clean = replay ? array.result() : array.run(a, b);
  const long horizon = clean.cycles;
  // The reference compares a trial's PE against its golden column and,
  // OR-ed with the other PEs' golden flags, against the golden flags: PE
  // j reads only a(i, k), b(k, j) and its own state, and no fault site
  // sits between PEs.
  std::vector<std::uint8_t> other_flags(static_cast<std::size_t>(n), 0);
  for (int j = 0; j < n; ++j) {
    for (int k = 0; k < n; ++k) {
      if (k != j) {
        other_flags[static_cast<std::size_t>(j)] |= array.pe(k).flags();
      }
    }
  }
  golden_span.end();
  // Per-PE MAC utilization + unit occupancy of the clean kernel run,
  // recorded before any trial perturbs the golden array's counters.
  obs::record_matmul_utilization(reg, "kernel.matmul", array);

  auto draw_span = tracer.span("draw", "campaign");

  // Latch-fault sample spaces for the PE's two units (profiled on clones
  // of the golden PE's units: the array's PEs share cfg's unit configs).
  const fault::LatchProfile mult_profile = fault::profile_unit_latches(
      array.pe(0).multiplier(), 24, camp.seed + 2);
  const fault::LatchProfile add_profile =
      fault::profile_unit_latches(array.pe(0).adder(), 24, camp.seed + 3);
  // Flattened once here: every draw below samples one fault from them.
  const fault::ProfileSites mult_sites(mult_profile);
  const fault::ProfileSites add_sites(add_profile);

  // Pre-draw the complete fault list before any trial runs (the
  // determinism anchor for the parallel trial loop below).
  std::vector<PeFault> faults;
  faults.reserve(static_cast<std::size_t>(camp.faults));
  const int acc_count = static_cast<int>(
      camp.accumulator_fraction * static_cast<double>(camp.faults) + 0.5);
  for (int i = 0; i < camp.faults; ++i) {
    PeFault pf;
    pf.pe = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    if (i < acc_count) {
      pf.target = PeFault::kAccumulator;
      fault::CampaignSpec acc_spec;
      acc_spec.source = fault::CampaignSpec::Source::kAccumulator;
      acc_spec.rows = n;
      acc_spec.word_bits = cfg.fmt.total_bits();
      acc_spec.horizon = horizon;
      acc_spec.count = 1;
      acc_spec.seed = rng();
      const fault::FaultCampaign acc = fault::FaultCampaign::make(acc_spec);
      pf.fault = acc.faults().front();
    } else {
      const bool mult = (rng() & 1) != 0;
      pf.target = mult ? PeFault::kMultLatch : PeFault::kAddLatch;
      const fault::FaultCampaign latch =
          redraw_until_nonempty(rng, [&](std::uint64_t seed) {
            fault::CampaignSpec latch_spec;
            latch_spec.source = fault::CampaignSpec::Source::kRandom;
            latch_spec.sites = mult ? &mult_sites : &add_sites;
            latch_spec.horizon = horizon;
            latch_spec.count = 1;
            latch_spec.seed = seed;
            return fault::FaultCampaign::make(latch_spec);
          });
      if (latch.empty()) {
        // Dropping the trial shrinks the campaign below camp.faults and
        // skews the site mix — make the silent path loud.
        ++res.draws_exhausted;
        reg.counter("campaign.matmul.dropped_trials").inc();
        std::fprintf(stderr,
                     "warning: matmul campaign: %s latch fault draw still "
                     "empty after %d redraws; dropping trial %d of %d\n",
                     mult ? "multiplier" : "adder", kMaxRedraws, i,
                     camp.faults);
        continue;
      }
      pf.fault = latch.faults().front();
    }
    faults.push_back(pf);
  }

  // Configuration upsets ride on top of the legacy draw sequence (appended
  // after it, so config_fraction == 0 reproduces the old campaign bit for
  // bit): a struck LUT/route in one unit's stage logic forces a stuck mask
  // until the next scrub pass.
  const int config_count = static_cast<int>(
      camp.config_fraction * static_cast<double>(camp.faults) + 0.5);
  for (int i = 0; i < config_count; ++i) {
    PeFault pf;
    pf.pe = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    const bool mult = (rng() & 1) != 0;
    pf.target = mult ? PeFault::kConfigMult : PeFault::kConfigAdd;
    const fault::FaultCampaign config =
        redraw_until_nonempty(rng, [&](std::uint64_t seed) {
          fault::CampaignSpec config_spec;
          config_spec.source = fault::CampaignSpec::Source::kCram;
          config_spec.sites = mult ? &mult_sites : &add_sites;
          config_spec.horizon = horizon;
          config_spec.count = 1;
          config_spec.seed = seed;
          config_spec.scrub_period_cycles = camp.scrub_period_cycles;
          return fault::FaultCampaign::make(config_spec);
        });
    if (config.empty()) {
      ++res.draws_exhausted;
      reg.counter("campaign.matmul.dropped_trials").inc();
      std::fprintf(stderr,
                   "warning: matmul campaign: %s config fault draw still "
                   "empty after %d redraws; dropping trial %d of %d\n",
                   mult ? "multiplier" : "adder", kMaxRedraws, i,
                   config_count);
      continue;
    }
    pf.fault = config.faults().front();
    faults.push_back(pf);
  }
  draw_span.end();

  // Static checkpoint grid over the pre-drawn fault list (see the unit
  // campaign above for the scheme; the key folds the drawn faults so two
  // campaigns with different draws can never share a sidecar).
  CheckpointedGrid grid_spec;
  grid_spec.count = faults.size();
  grid_spec.chunk = control.chunk_trials > 0 ? control.chunk_trials : 16;
  grid_spec.threads = threads;
  grid_spec.progress = "matmul campaign";
  grid_spec.spec_key = [&] {
    fault::SpecHash spec;
    spec.str("matmul_campaign v1");
    spec.i64(camp.n).str(cfg.fmt.name());
    spec.i64(camp.faults).u64(camp.seed);
    spec.f64(camp.accumulator_fraction).f64(camp.config_fraction);
    spec.i64(static_cast<long long>(camp.scheme));
    spec.i64(camp.scrub_period_cycles).i64(horizon);
    spec.i64(cfg.mult_config().stages).i64(cfg.adder_config().stages);
    spec.i64(static_cast<long long>(grid_spec.chunk));
    spec.i64(static_cast<long long>(grid_spec.count));
    for (const PeFault& pf : faults) {
      spec.i64(pf.pe).i64(static_cast<long long>(pf.target));
      fold_fault(spec, pf.fault);
    }
    return spec.value();
  };
  grid_spec.silent = [](std::uint8_t v) {
    return (v & kCorrupted) != 0 && (v & kEccDetected) == 0;
  };
  grid_spec.half_width = proportion_half_width;
  std::vector<std::uint8_t> slots(faults.size());  // sidecar byte per trial

  // Trial loop. The fast path answers an upset by walking the golden
  // accumulates it reaches through the fault's injector: an accumulator
  // upset strikes the golden bank (MatmulReplay::accumulator_upset), a
  // latch or configuration upset the accumulates' passes through its
  // unit (MatmulReplay::unit_upset). The reference steps the struck PE
  // through its whole schedule (LinearArrayMatmul::run_pe) on the
  // worker's own clone of one of the array's PEs, cloned on the worker's
  // first chunk and kept for the campaign (run_pe clears it first), and
  // reads it out as result() does. Verdicts land in per-fault slots.
  auto inject_span = tracer.span("inject", "campaign");
  std::vector<std::optional<kernel::ProcessingElement>> worker_pes(
      static_cast<std::size_t>(threads));
  const exec::GridResult grid = run_checkpointed_grid(
      control, grid_spec, slots,
      [&](int worker, std::size_t begin, std::size_t end) {
        std::optional<kernel::ProcessingElement>& pe =
            worker_pes[static_cast<std::size_t>(worker)];
        for (std::size_t i = begin; i < end; ++i) {
          const PeFault& pf = faults[i];
          fault::FaultInjector injector({pf.fault});
          if (replay) {
            const kernel::MatmulReplay::Verdict v =
                pf.target == PeFault::kAccumulator
                    ? replay->accumulator_upset(pf.pe, pf.fault.cycle,
                                                injector)
                    : replay->unit_upset(pf.pe, struck_unit(pf.target),
                                         pf.fault.cycle,
                                         fault::last_active_cycle(pf.fault),
                                         injector);
            slots[i] = verdict(v.corrupted, v.ecc_detections > 0,
                               v.ecc_corrections > 0);
          } else {
            if (!pe) pe.emplace(array.pe(0).clone());
            attach_fault(*pe, pf.target, &injector);
            array.run_pe(*pe, pf.pe, a, b);
            attach_fault(*pe, pf.target, nullptr);
            const kernel::LinearArrayMatmul::PeReadout out =
                array.readout(*pe);
            bool corrupted =
                (out.flags | other_flags[static_cast<std::size_t>(pf.pe)]) !=
                clean.flags;
            for (int r = 0; r < n; ++r) {
              corrupted |= out.column[static_cast<std::size_t>(r)] !=
                           clean.c.at(r, pf.pe);
            }
            slots[i] = verdict(corrupted, pe->ecc_detections() > 0,
                               pe->ecc_corrections() > 0);
          }
        }
      },
      res.run);
  // Free the worker PEs and the golden logs here, where the inject span
  // accounts for the cost.
  worker_pes.clear();
  replay.reset();
  inject_span.end();

  // Ordered reduction over the pre-drawn fault list; only accounted (run
  // or restored) chunks contribute.
  auto reduce_span = tracer.span("reduce", "campaign");
  for (std::size_t c = 0; c < grid.chunks; ++c) {
    if (grid.done[c] == 0) continue;
    const std::size_t cbegin = c * grid_spec.chunk;
    const std::size_t cend =
        std::min(grid_spec.count, cbegin + grid_spec.chunk);
    for (std::size_t i = cbegin; i < cend; ++i) {
      const PeFault& pf = faults[i];
      const std::uint8_t v = slots[i];
      ++res.injected;
      const bool acc_site = pf.target == PeFault::kAccumulator;
      const bool config_site = pf.target == PeFault::kConfigMult ||
                               pf.target == PeFault::kConfigAdd;
      if (acc_site) ++res.acc_injected;
      else if (config_site) ++res.config_injected;
      else ++res.latch_injected;

      if ((v & kCorrupted) != 0) {
        // ECC can still flag what it cannot fix (double errors).
        if ((v & kEccDetected) != 0) {
          ++res.detected;
        } else {
          ++res.silent;
          if (acc_site) ++res.acc_silent;
          else if (config_site) ++res.config_silent;
          else ++res.latch_silent;
        }
      } else if ((v & kEccCorrected) != 0) {
        ++res.corrected;  // the upset reached storage; SECDED repaired it
      } else {
        ++res.masked;
      }
    }
  }
  reduce_span.end();

  reg.counter("campaign.matmul.trials").add(res.injected);
  reg.counter("campaign.matmul.masked").add(res.masked);
  reg.counter("campaign.matmul.detected").add(res.detected);
  reg.counter("campaign.matmul.corrected").add(res.corrected);
  reg.counter("campaign.matmul.silent").add(res.silent);
  reg.counter("campaign.matmul.acc_injected").add(res.acc_injected);
  reg.counter("campaign.matmul.acc_silent").add(res.acc_silent);
  reg.counter("campaign.matmul.latch_injected").add(res.latch_injected);
  reg.counter("campaign.matmul.latch_silent").add(res.latch_silent);
  reg.counter("campaign.matmul.config_injected").add(res.config_injected);
  reg.counter("campaign.matmul.config_silent").add(res.config_silent);
  return res;
}

}  // namespace flopsim::analysis
