#include "rtl/simulator.hpp"

#include <stdexcept>

namespace flopsim::rtl {

PipelineSim::PipelineSim(const PieceChain* chain, PipelinePlan plan)
    : chain_(chain), plan_(std::move(plan)) {
  if (chain_ == nullptr || chain_->empty() || plan_.stages() < 1) {
    throw std::invalid_argument("PipelineSim: empty chain or plan");
  }
  latch_.resize(static_cast<std::size_t>(plan_.stages()));
  valid_cycles_.assign(static_cast<std::size_t>(plan_.stages()), 0);
}

void PipelineSim::step(const std::optional<SignalSet>& input) {
  // Evaluate stages back-to-front so each stage consumes the upstream
  // latch's pre-edge value — i.e. true synchronous behaviour.
  for (int s = plan_.stages() - 1; s >= 0; --s) {
    SignalSet work;
    if (s == 0) {
      work = input.value_or(SignalSet{});
    } else {
      work = latch_[s - 1];
    }
    if (work.valid) {
      for (int i = plan_.stage_begin[s]; i < plan_.stage_begin[s + 1]; ++i) {
        (*chain_)[i].eval(work);
      }
    }
    latch_[s] = work;
    if (observer_ != nullptr) observer_->on_latch(cycles_, s, latch_[s]);
    if (latch_[s].valid) ++valid_cycles_[static_cast<std::size_t>(s)];
  }
  ++cycles_;
}

void PipelineSim::restore(const State& s) {
  if (s.latches.size() != latch_.size() ||
      s.valid_cycles.size() != valid_cycles_.size()) {
    throw std::invalid_argument("PipelineSim: state from another plan");
  }
  latch_ = s.latches;
  valid_cycles_ = s.valid_cycles;
  cycles_ = s.cycles;
}

void PipelineSim::reset() {
  for (SignalSet& l : latch_) l = SignalSet{};
  valid_cycles_.assign(latch_.size(), 0);
  cycles_ = 0;
}

}  // namespace flopsim::rtl
