#include "rtl/evaluator.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>

namespace flopsim::rtl {

const char* to_string(EvalBackend b) {
  switch (b) {
    case EvalBackend::kAuto: return "auto";
    case EvalBackend::kInterpreted: return "interpreted";
    case EvalBackend::kCompiled: return "compiled";
    case EvalBackend::kBitsliced: return "bitsliced";
  }
  return "?";
}

std::optional<EvalBackend> try_parse_backend(const std::string& name) {
  if (name == "interpreted") return EvalBackend::kInterpreted;
  if (name == "compiled") return EvalBackend::kCompiled;
  if (name == "bitsliced") return EvalBackend::kBitsliced;
  return std::nullopt;
}

EvalBackend resolve_backend(EvalBackend requested) {
  if (requested != EvalBackend::kAuto) return requested;
  if (const char* env = std::getenv("FLOPSIM_BACKEND")) {
    if (const auto b = try_parse_backend(env)) return *b;
  }
  return EvalBackend::kInterpreted;
}

CleanRun::CleanRun(std::vector<SignalSet> in, long h, int s)
    : inputs(std::move(in)),
      horizon(h),
      vectors(static_cast<int>(inputs.size())),
      stages(s),
      states(static_cast<std::size_t>(vectors) * static_cast<std::size_t>(s),
             SignalSet{}) {}

void CleanRun::record(long cycle, const std::vector<SignalSet>& latches) {
  for (int s = 0; s < stages; ++s) {
    const long v = cycle - s;
    if (v >= 0 && v < vectors) {
      states[static_cast<std::size_t>(v) * static_cast<std::size_t>(stages) +
             static_cast<std::size_t>(s)] = latches[static_cast<std::size_t>(s)];
    }
  }
}

Evaluator::Evaluator(const PieceChain& chain, const PipelinePlan& plan,
                     int result_lane, std::shared_ptr<const CleanRun> run)
    : chain_(&chain),
      plan_(&plan),
      result_lane_(result_lane),
      run_(std::move(run)) {}

void Evaluator::trials(const LatchUpset* upsets, UpsetTrial* out,
                       std::size_t n) {
  const CleanRun& b = *run_;
  const int s_count = b.stages;
  const auto rl = static_cast<std::size_t>(result_lane_);
  for (std::size_t base = 0; base < n; base += 64) {
    const int m = static_cast<int>(std::min<std::size_t>(64, n - base));
    // Load the block: each struck slot starts from its vector's clean
    // state at the struck stage, flipped, and enters at the next stage.
    std::uint64_t struck = 0;
    std::array<int, 64> entry{};
    std::array<int, 64> vec{};
    for (int k = 0; k < m; ++k) {
      const LatchUpset& u = upsets[base + static_cast<std::size_t>(k)];
      out[base + static_cast<std::size_t>(k)] = UpsetTrial{};
      const long v = u.cycle - u.stage;
      if (u.stage < 0 || u.stage >= s_count || v < 0 || v >= b.vectors ||
          u.lane < 0 || u.lane >= kMaxSignals) {
        continue;  // bubble strike
      }
      SignalSet& slot = slot_[static_cast<std::size_t>(k)];
      slot = b.state(static_cast<int>(v), u.stage);
      slot.lane[static_cast<std::size_t>(u.lane)] ^=
          fp::u64{1} << (u.bit & 63);
      entry[static_cast<std::size_t>(k)] = u.stage + 1;
      vec[static_cast<std::size_t>(k)] = static_cast<int>(v);
      struck |= std::uint64_t{1} << k;
    }

    // Replay op-major: per stage, every piece once over the live slots.
    for (int st = 0; st < s_count && struck != 0; ++st) {
      // The per-stage valid gate, sampled at the stage boundary exactly
      // like PipelineSim::step samples it once per stage.
      std::uint64_t active = 0;
      for (std::uint64_t w = struck; w != 0; w &= w - 1) {
        const int k = std::countr_zero(w);
        if (entry[static_cast<std::size_t>(k)] <= st &&
            slot_[static_cast<std::size_t>(k)].valid) {
          active |= std::uint64_t{1} << k;
        }
      }
      if (active == 0) continue;
      for (int i = plan_->stage_begin[static_cast<std::size_t>(st)];
           i < plan_->stage_begin[static_cast<std::size_t>(st) + 1]; ++i) {
        const auto& eval = (*chain_)[static_cast<std::size_t>(i)].eval;
        for (std::uint64_t w = active; w != 0; w &= w - 1) {
          eval(slot_[static_cast<std::size_t>(std::countr_zero(w))]);
        }
      }
    }

    for (std::uint64_t w = struck; w != 0; w &= w - 1) {
      const int k = std::countr_zero(w);
      const SignalSet& s = slot_[static_cast<std::size_t>(k)];
      const SignalSet& clean =
          b.state(vec[static_cast<std::size_t>(k)], s_count - 1);
      UpsetTrial& t = out[base + static_cast<std::size_t>(k)];
      t.struck = true;
      t.valid = s.valid;
      t.result = s.lane[rl];
      t.flags = s.flags;
      t.corrupted =
          s.valid != clean.valid ||
          (s.valid && (t.result != clean.lane[rl] || t.flags != clean.flags));
    }
  }
}

}  // namespace flopsim::rtl
