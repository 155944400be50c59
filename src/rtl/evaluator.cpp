#include "rtl/evaluator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>

#include "obs/trace.hpp"
#include "rtl/simulator.hpp"

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

std::shared_ptr<const CleanRun> bind_clean_states(
    const PieceChain& chain, const PipelinePlan& plan,
    const std::vector<SignalSet>& inputs, long horizon) {
  auto run = std::make_shared<CleanRun>(inputs, horizon, plan.stages());
  PipelineSim sim(&chain, plan);
  for (long t = 0; t < horizon; ++t) {
    sim.step(t < run->vectors ? std::optional<SignalSet>(
                                    run->inputs[static_cast<std::size_t>(t)])
                              : std::nullopt);
    run->record(t, sim.latches());
  }
  return run;
}

namespace {

// ---------------------------------------------------------------------------
// Interpreted: the faithful reference. Every trial re-steps a PipelineSim
// over the whole horizon with a one-shot latch flip, comparing the output
// register against the clean run cycle by cycle.

class InterpretedEvaluator final : public Evaluator {
 public:
  InterpretedEvaluator(const PieceChain& chain, const PipelinePlan& plan,
                       int result_lane)
      : chain_(&chain),
        plan_(plan),
        result_lane_(result_lane),
        sim_(&chain, plan) {}

  EvalBackend backend() const override { return EvalBackend::kInterpreted; }

  void bind(std::shared_ptr<const CleanRun> run) override {
    bound_ = std::move(run);
  }

  int stages() const override { return plan_.stages(); }
  int vectors() const override { return bound_ ? bound_->vectors : 0; }

  const SignalSet& clean_state(int vector, int stage) const override {
    return bound_->state(vector, stage);
  }

  UpsetTrial trial(const LatchUpset& u) override {
    UpsetTrial t;
    const CleanRun& b = *bound_;
    const int s_count = plan_.stages();
    const long v = u.cycle - u.stage;
    const bool struck =
        u.stage >= 0 && u.stage < s_count && v >= 0 && v < b.vectors &&
        u.lane >= 0 && u.lane < kMaxSignals;
    FlipObserver obs;
    obs.u = u;
    sim_.reset();
    sim_.set_latch_observer(&obs);
    for (long c = 0; c < b.horizon; ++c) {
      sim_.step(c < b.vectors ? std::optional<SignalSet>(
                                    b.inputs[static_cast<std::size_t>(c)])
                              : std::nullopt);
      const SignalSet& out = sim_.output();
      const long ov = c - (s_count - 1);
      const SignalSet* clean = (ov >= 0 && ov < b.vectors)
                                   ? &b.state(static_cast<int>(ov), s_count - 1)
                                   : nullptr;
      const bool clean_valid = clean != nullptr && clean->valid;
      if (out.valid != clean_valid) {
        t.corrupted = true;
      } else if (out.valid &&
                 (out.lane[static_cast<std::size_t>(result_lane_)] !=
                      clean->lane[static_cast<std::size_t>(result_lane_)] ||
                  out.flags != clean->flags)) {
        t.corrupted = true;
      }
      if (struck && c == v + s_count - 1) {
        t.valid = out.valid;
        t.result = out.lane[static_cast<std::size_t>(result_lane_)];
        t.flags = out.flags;
      }
    }
    sim_.set_latch_observer(nullptr);
    if (!struck) return UpsetTrial{};  // bubble strike: provably benign
    t.struck = true;
    return t;
  }

  std::unique_ptr<Evaluator> fork() const override {
    auto e = std::make_unique<InterpretedEvaluator>(*chain_, plan_,
                                                    result_lane_);
    e->bound_ = bound_;
    return e;
  }

 private:
  /// One-shot latch flip, applied unconditionally at the matching edge —
  /// the same contract as the fault injector (bubbles get flipped too;
  /// they just never reach a valid output).
  struct FlipObserver final : LatchObserver {
    LatchUpset u;
    void on_latch(long cycle, int stage, SignalSet& latch) override {
      if (cycle == u.cycle && stage == u.stage && u.lane >= 0 &&
          u.lane < kMaxSignals) {
        latch.lane[static_cast<std::size_t>(u.lane)] ^=
            fp::u64{1} << (u.bit & 63);
      }
    }
  };

  const PieceChain* chain_;
  PipelinePlan plan_;
  int result_lane_;
  PipelineSim sim_;
  std::shared_ptr<const CleanRun> bound_;
};

// ---------------------------------------------------------------------------
// Compiled: copy the struck clean state, flip, replay only the compiled
// suffix stages.

/// State shared by a compiled evaluator and all its forks. Immutable
/// after bind() (bind before forking).
struct CompiledCore {
  const PieceChain* chain = nullptr;
  PipelinePlan plan;
  int result_lane = 0;
  CompiledProgram program;
  std::shared_ptr<const CleanRun> bound;
};

class CompiledEvaluator : public Evaluator {
 public:
  CompiledEvaluator(const PieceChain& chain, const PipelinePlan& plan,
                    const CompileContract& contract)
      : core_(std::make_shared<CompiledCore>()) {
    core_->chain = &chain;
    core_->plan = plan;
    core_->result_lane = contract.result_lane;
    auto span = obs::Tracer::global().span("compile", "evaluator",
                                           {{"stages", plan.stages()}});
    core_->program = compile_program(chain, plan, contract);
  }
  explicit CompiledEvaluator(std::shared_ptr<CompiledCore> core)
      : core_(std::move(core)) {}

  EvalBackend backend() const override { return EvalBackend::kCompiled; }

  void bind(std::shared_ptr<const CleanRun> run) override {
    core_->bound = std::move(run);
  }

  int stages() const override { return core_->plan.stages(); }
  int vectors() const override {
    return core_->bound ? core_->bound->vectors : 0;
  }

  const SignalSet& clean_state(int vector, int stage) const override {
    return core_->bound->state(vector, stage);
  }

  UpsetTrial trial(const LatchUpset& u) override {
    UpsetTrial t;
    const CompiledCore& core = *core_;
    const CleanRun& b = *core.bound;
    const int s_count = b.stages;
    const long v = u.cycle - u.stage;
    if (u.stage < 0 || u.stage >= s_count || v < 0 || v >= b.vectors ||
        u.lane < 0 || u.lane >= kMaxSignals) {
      return t;  // bubble strike
    }
    SignalSet s = b.state(static_cast<int>(v), u.stage);
    s.lane[static_cast<std::size_t>(u.lane)] ^= fp::u64{1} << (u.bit & 63);
    core.program.run(s, u.stage + 1, s_count);
    const SignalSet& clean = b.state(static_cast<int>(v), s_count - 1);
    const auto rl = static_cast<std::size_t>(core.result_lane);
    t.struck = true;
    t.valid = s.valid;
    t.result = s.lane[rl];
    t.flags = s.flags;
    t.corrupted =
        s.valid != clean.valid ||
        (s.valid && (t.result != clean.lane[rl] || t.flags != clean.flags));
    return t;
  }

  std::unique_ptr<Evaluator> fork() const override {
    return std::make_unique<CompiledEvaluator>(core_);
  }

  const CompileStats* compile_stats() const override {
    return &core_->program.stats();
  }

 protected:
  const std::shared_ptr<CompiledCore>& core() const { return core_; }

 private:
  std::shared_ptr<CompiledCore> core_;
};

// ---------------------------------------------------------------------------
// Bitsliced: the compiled backend's batch mode. trials() packs up to 64
// upsets into one block; the fault masks are applied slot-wise up front,
// the compiled program then runs op-major over the block (each op fetched
// once, applied to every live slot), and the struck/corrupted verdicts
// are accumulated as bits of 64-bit words before being unpacked into the
// per-trial results.

class BitslicedEvaluator final : public CompiledEvaluator {
 public:
  using CompiledEvaluator::CompiledEvaluator;

  EvalBackend backend() const override { return EvalBackend::kBitsliced; }

  void trials(const LatchUpset* upsets, UpsetTrial* out,
              std::size_t n) override {
    const CompiledCore& core = *this->core();
    const CleanRun& b = *core.bound;
    const int s_count = b.stages;
    const auto rl = static_cast<std::size_t>(core.result_lane);
    for (std::size_t base = 0; base < n; base += 64) {
      const int m = static_cast<int>(std::min<std::size_t>(64, n - base));
      std::uint64_t struck = 0;
      std::array<int, 64> entry{};
      std::array<int, 64> vec{};
      for (int k = 0; k < m; ++k) {
        const LatchUpset& u = upsets[base + static_cast<std::size_t>(k)];
        out[base + static_cast<std::size_t>(k)] = UpsetTrial{};
        entry[static_cast<std::size_t>(k)] = s_count;  // never active
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
      if (struck != 0) {
        core.program.run_block(slot_.data(), entry.data(), struck);
      }
      std::uint64_t corrupted = 0;
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
        if (s.valid != clean.valid ||
            (s.valid &&
             (t.result != clean.lane[rl] || t.flags != clean.flags))) {
          corrupted |= std::uint64_t{1} << k;
        }
      }
      for (std::uint64_t w = corrupted; w != 0; w &= w - 1) {
        out[base + static_cast<std::size_t>(std::countr_zero(w))].corrupted =
            true;
      }
    }
  }

  std::unique_ptr<Evaluator> fork() const override {
    return std::make_unique<BitslicedEvaluator>(core());
  }

 private:
  std::array<SignalSet, 64> slot_{};
};

}  // namespace

std::unique_ptr<Evaluator> make_evaluator(EvalBackend backend,
                                          const PieceChain& chain,
                                          const PipelinePlan& plan,
                                          const CompileContract& contract) {
  switch (resolve_backend(backend)) {
    case EvalBackend::kCompiled:
      return std::make_unique<CompiledEvaluator>(chain, plan, contract);
    case EvalBackend::kBitsliced:
      return std::make_unique<BitslicedEvaluator>(chain, plan, contract);
    case EvalBackend::kAuto:
    case EvalBackend::kInterpreted:
      break;
  }
  return std::make_unique<InterpretedEvaluator>(chain, plan,
                                                contract.result_lane);
}

}  // namespace flopsim::rtl
