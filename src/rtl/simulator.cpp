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
  // latch's pre-edge value — i.e. true synchronous behaviour. A stage
  // loads that value into its own latch and evaluates it there: one
  // bundle move per stage.
  for (int s = plan_.stages() - 1; s >= 0; --s) {
    SignalSet& latch = latch_[static_cast<std::size_t>(s)];
    if (s > 0) {
      latch = latch_[static_cast<std::size_t>(s) - 1];
    } else if (input.has_value()) {
      latch = *input;
    } else {
      latch = SignalSet{};
    }
    if (latch.valid) run_stage(*chain_, plan_, s, latch);
    if (observer_ != nullptr) observer_->on_latch(cycles_, s, latch);
    if (latch.valid) ++valid_cycles_[static_cast<std::size_t>(s)];
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
