#include "lint/probe.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fp/bits.hpp"

namespace flopsim::lint {
namespace {

using fp::u64;
using rtl::kMaxSignals;
using rtl::SignalSet;

/// Records the lanes the evals it runs touch, through the thread's
/// LaneAccessLog, with out-of-range capture.
class AccessRecorder {
 public:
  AccessRecorder() : out_of_range_(16) { attach_storage(); }

  /// Evaluates `piece` on `state` with the log attached. An eval that met
  /// more distinct out-of-range lanes than the storage holds runs again on
  /// a copy of its input with more storage; `state` keeps the first run's
  /// output.
  void eval(const rtl::Piece& piece, SignalSet& state) {
    const SignalSet in = state;
    {
      const rtl::ScopedLaneAccessLog attach(&log_);
      piece.eval(state);
    }
    while (log_.out_of_range_full) {
      out_of_range_.resize(out_of_range_.size() * 4);
      attach_storage();
      SignalSet again = in;
      const rtl::ScopedLaneAccessLog attach(&log_);
      piece.eval(again);
    }
  }

  void reset() {
    log_.mutable_lanes = 0;
    log_.const_lanes = 0;
    log_.out_of_range_count = 0;
  }

  /// Bit l: lane l accessed through the non-const / const operator[].
  std::uint32_t mutable_lanes() const { return log_.mutable_lanes; }
  std::uint32_t const_lanes() const { return log_.const_lanes; }
  /// Distinct out-of-range indices, ascending.
  std::vector<int> out_of_range() const {
    std::vector<int> oob(out_of_range_.begin(),
                         out_of_range_.begin() + log_.out_of_range_count);
    std::sort(oob.begin(), oob.end());
    return oob;
  }
  bool any() const {
    return (log_.mutable_lanes | log_.const_lanes) != 0 ||
           log_.out_of_range_count > 0;
  }

 private:
  void attach_storage() {
    log_.out_of_range = out_of_range_.data();
    log_.out_of_range_capacity = static_cast<int>(out_of_range_.size());
    log_.out_of_range_full = false;
  }

  rtl::LaneAccessLog log_;
  std::vector<int> out_of_range_;
};

bool states_equal(const SignalSet& a, const SignalSet& b) {
  return a.lane == b.lane && a.valid == b.valid && a.flags == b.flags;
}

/// A value guaranteed to differ from `x` while exercising bits across the
/// value's whole observed width (so single-bit condition tests at any
/// level see the change), without straying far past it.
u64 perturb(u64 x) {
  const int width = std::max(effective_width(x), 8);
  const u64 mask = width >= 64 ? ~u64{0} : fp::mask64(width);
  const u64 candidate = x ^ (u64{0x5555555555555555} & mask);
  return candidate != x ? candidate : x ^ 1;
}

/// True when perturbing lane `lane` of the input produced an output that
/// differs from the baseline anywhere the perturbation itself does not
/// account for — i.e. the piece read the lane. `perturbed_value` is the
/// value lane `lane` held on entry to the perturbed run.
bool output_depends_on_lane(const SignalSet& baseline_out,
                            const SignalSet& perturbed_out,
                            u64 perturbed_value, int lane,
                            bool lane_written) {
  if (baseline_out.flags != perturbed_out.flags) return true;
  if (baseline_out.valid != perturbed_out.valid) return true;
  for (int l = 0; l < kMaxSignals; ++l) {
    const auto idx = static_cast<std::size_t>(l);
    if (l == lane) {
      if (lane_written) {
        // The piece writes this lane: a different written value means the
        // write depended on the prior contents (e.g. |=, +=).
        if (baseline_out.lane[idx] != perturbed_out.lane[idx]) return true;
      } else {
        // Pass-through lane. The perturbed value surviving untouched is a
        // plain non-read; the *baseline* value reappearing means the piece
        // overwrote the lane with a value independent of its prior
        // contents (a write that was invisible in the unperturbed run
        // because it happened to restore the same value — e.g. a pack
        // piece computing result == operand A into the operand's lane).
        // Only a third value — one derived from the prior contents —
        // proves a read.
        if (perturbed_out.lane[idx] != perturbed_value &&
            perturbed_out.lane[idx] != baseline_out.lane[idx]) {
          return true;
        }
      }
    } else if (baseline_out.lane[idx] != perturbed_out.lane[idx]) {
      return true;
    }
  }
  return false;
}

/// The probe's entry state for stimulus `v`: every lane the contract does
/// not initialize is poisoned with a per-lane pattern, so writes of
/// "natural" values (zero included) are observable as changes.
SignalSet entry_state(const ChainContract& contract, const Options& opts,
                      std::size_t v) {
  SignalSet state;
  for (int l = 0; l < kMaxSignals; ++l) {
    state.lane[static_cast<std::size_t>(l)] =
        u64{0x9E3779B97F4A7C15} * static_cast<u64>(l + 3) ^
        (opts.seed + 0xD1B54A32D192ED03 * v);
  }
  for (int l : contract.input_lanes) {
    if (l >= 0 && l < kMaxSignals) {
      state.lane[static_cast<std::size_t>(l)] =
          contract.stimuli[v].lane[static_cast<std::size_t>(l)];
    }
  }
  state.valid = true;
  state.flags = 0;
  return state;
}

}  // namespace

int effective_width(u64 value) {
  if (value == 0) return 0;
  const int unsigned_width = fp::msb_index64(value) + 1;
  // Two's-complement reading: bits to hold the value as a signed number.
  // For a sign-extended negative (top bits all ones) this is 64 minus the
  // length of the sign run plus one.
  const int signed_width =
      ~value == 0 ? 1 : fp::msb_index64(~value) + 2;
  return std::min(unsigned_width, signed_width);
}

ChainAccess infer_chain_access(const rtl::PieceChain& chain,
                               const ChainContract& contract,
                               const Options& opts) {
  const std::size_t n = chain.size();
  ChainAccess access;
  access.piece.resize(n);
  access.width_after.assign(n, {});
  for (auto& pa : access.piece) pa.write_always.fill(true);

  std::array<bool, kMaxSignals> is_input{};
  for (int l : contract.input_lanes) {
    if (l >= 0 && l < kMaxSignals) is_input[static_cast<std::size_t>(l)] = true;
  }

  AccessRecorder recorder;
  for (std::size_t v = 0; v < contract.stimuli.size(); ++v) {
    SignalSet state = entry_state(contract, opts, v);

    // Lanes holding a defined value in THIS vector: contract inputs plus
    // whatever pieces have written so far. Poison in a not-yet-written
    // lane must not leak into the width statistics.
    std::array<bool, kMaxSignals> defined = is_input;

    for (std::size_t p = 0; p < n; ++p) {
      PieceAccess& pa = access.piece[p];
      const SignalSet pre = state;

      // The rerun and the perturbation trials evaluate with the log
      // attached too: it is the bounds check, and a chain under lint may be
      // exactly the kind that indexes out of range (DL103).
      recorder.reset();
      recorder.eval(chain[p], state);
      pa.touched = pa.touched || recorder.any();
      // Snapshot the baseline run's access sets — the trials below may take
      // different branches and touch lanes the baseline did not.
      const std::uint32_t baseline_const = recorder.const_lanes();
      const std::uint32_t baseline_mutable = recorder.mutable_lanes();

      // Determinism: an identical rerun must reproduce the output.
      if (!pa.nondeterministic) {
        SignalSet rerun = pre;
        recorder.eval(chain[p], rerun);
        if (!states_equal(rerun, state)) pa.nondeterministic = true;
      }

      if (state.flags != pre.flags) pa.writes_flags = true;
      if (state.valid != pre.valid) pa.writes_valid = true;

      // Writes: lanes whose value changed. Anything a const access hit is
      // a definite read.
      for (int l = 0; l < kMaxSignals; ++l) {
        const auto idx = static_cast<std::size_t>(l);
        const bool changed = state.lane[idx] != pre.lane[idx];
        if (changed) pa.write_any[idx] = true;
        if (!changed) pa.write_always[idx] = false;
        if ((baseline_const >> l & 1) != 0) pa.read[idx] = true;
      }

      // Reads among the mutably-accessed lanes, by input perturbation.
      for (int l = 0; l < kMaxSignals; ++l) {
        const auto idx = static_cast<std::size_t>(l);
        if ((baseline_mutable >> l & 1) == 0) continue;
        const bool written_here = state.lane[idx] != pre.lane[idx];
        if (pa.read[idx]) continue;
        SignalSet trial = pre;
        trial.lane[idx] = perturb(pre.lane[idx]);
        const u64 perturbed_value = trial.lane[idx];
        recorder.eval(chain[p], trial);
        if (output_depends_on_lane(state, trial, perturbed_value, l,
                                   written_here)) {
          pa.read[idx] = true;
        } else if (!written_here && trial.lane[idx] == state.lane[idx] &&
                   trial.lane[idx] != perturbed_value) {
          // The perturbation exposed an overwrite that was invisible in
          // the unperturbed run (the piece recomputed the same value).
          pa.write_any[idx] = true;
          defined[idx] = true;
        }
      }

      for (int oob : recorder.out_of_range()) {
        if (std::find(pa.out_of_range.begin(), pa.out_of_range.end(), oob) ==
            pa.out_of_range.end()) {
          pa.out_of_range.push_back(oob);
        }
      }

      for (int l = 0; l < kMaxSignals; ++l) {
        const auto idx = static_cast<std::size_t>(l);
        if (state.lane[idx] != pre.lane[idx]) defined[idx] = true;
        if (!defined[idx]) continue;
        access.width_after[p][idx] =
            std::max(access.width_after[p][idx],
                     effective_width(state.lane[idx]));
      }
    }
  }

  // With zero stimuli nothing was observed; write_always must not claim
  // the vacuous truth.
  if (contract.stimuli.empty()) {
    for (auto& pa : access.piece) pa.write_always.fill(false);
  }
  return access;
}

ChainGuards infer_chain_guards(const rtl::PieceChain& chain,
                               const ChainContract& contract,
                               const Options& opts) {
  // The baseline walk and the identical rerun of infer_chain_access, from
  // the same entry states, without its perturbation and width passes and
  // without a lane access log: nothing the guards need reads the probe's
  // out-of-range capture, a campaign's clean run has already evaluated
  // every piece without a log, and the lint zoo gate (DL103) still runs
  // the logged probe on every unit chain.
  ChainGuards guards;
  std::vector<char> diverged(chain.size(), 0);
  for (std::size_t v = 0; v < contract.stimuli.size(); ++v) {
    SignalSet state = entry_state(contract, opts, v);
    for (std::size_t p = 0; p < chain.size(); ++p) {
      const SignalSet pre = state;
      chain[p].eval(state);
      if (diverged[p] == 0) {
        SignalSet rerun = pre;
        chain[p].eval(rerun);
        if (!states_equal(rerun, state)) {
          diverged[p] = 1;
          guards.nondeterministic = true;
        }
      }
      if (state.valid != pre.valid) guards.writes_valid = true;
    }
  }
  return guards;
}

}  // namespace flopsim::lint
