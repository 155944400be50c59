#include "rtl/evaluator.hpp"

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
                       std::size_t n) const {
  const CleanRun& b = *run_;
  const int s_count = b.stages;
  const auto rl = static_cast<std::size_t>(result_lane_);
  for (std::size_t k = 0; k < n; ++k) {
    const LatchUpset& u = upsets[k];
    UpsetTrial& t = out[k];
    t = UpsetTrial{};
    const long v = u.cycle - u.stage;
    if (u.stage < 0 || u.stage >= s_count || v < 0 || v >= b.vectors ||
        u.lane < 0 || u.lane >= kMaxSignals) {
      continue;  // bubble strike
    }
    // The struck vector's clean state at the struck stage, flipped, enters
    // the next stage. The loop condition is PipelineSim::step's per-stage
    // valid gate: an invalid bundle runs no piece, so it stays invalid
    // through every later stage.
    SignalSet s = b.state(static_cast<int>(v), u.stage);
    s.lane[static_cast<std::size_t>(u.lane)] ^= fp::u64{1} << (u.bit & 63);
    for (int st = u.stage + 1; st < s_count && s.valid; ++st) {
      run_stage(*chain_, *plan_, st, s);
    }
    const SignalSet& clean = b.state(static_cast<int>(v), s_count - 1);
    t.struck = true;
    t.valid = s.valid;
    t.result = s.lane[rl];
    t.flags = s.flags;
    t.corrupted =
        s.valid != clean.valid ||
        (s.valid && (t.result != clean.lane[rl] || t.flags != clean.flags));
  }
}

}  // namespace flopsim::rtl
