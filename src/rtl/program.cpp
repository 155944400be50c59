#include "rtl/program.hpp"

#include <bit>

#include "lint/probe.hpp"

namespace flopsim::rtl {

void CompiledProgram::run_block(SignalSet* slots, const int* entry_stage,
                                std::uint64_t mask) const {
  const int nstages = stages();
  for (int st = 0; st < nstages; ++st) {
    // The per-stage valid gate, sampled at the stage boundary exactly like
    // PipelineSim::step samples it once per stage.
    std::uint64_t active = 0;
    for (std::uint64_t w = mask; w != 0; w &= w - 1) {
      const int k = std::countr_zero(w);
      if (entry_stage[k] <= st && slots[k].valid) {
        active |= std::uint64_t{1} << k;
      }
    }
    if (active == 0) continue;
    for (int i = op_begin_[static_cast<std::size_t>(st)];
         i < op_begin_[static_cast<std::size_t>(st) + 1]; ++i) {
      const std::function<void(SignalSet&)>& eval =
          *ops_[static_cast<std::size_t>(i)];
      for (std::uint64_t w = active; w != 0; w &= w - 1) {
        eval(slots[std::countr_zero(w)]);
      }
    }
  }
}

CompiledProgram compile_program(const PieceChain& chain,
                                const PipelinePlan& plan,
                                const CompileContract& contract) {
  CompiledProgram prog;
  lint::ChainContract lc;
  lc.input_lanes = contract.input_lanes;
  lc.result_lane = contract.result_lane;
  lc.stimuli = contract.stimuli;
  const lint::ChainAccess access =
      lint::infer_chain_access(chain, lc, lint::Options{});
  for (const lint::PieceAccess& pa : access.piece) {
    prog.stats_.alters_valid = prog.stats_.alters_valid || pa.writes_valid;
    prog.stats_.nondeterministic =
        prog.stats_.nondeterministic || pa.nondeterministic;
  }

  // Ops are index-aligned with the chain, so the plan's piece boundaries
  // are the op boundaries.
  prog.ops_.reserve(chain.size());
  for (const Piece& p : chain) prog.ops_.push_back(&p.eval);
  prog.op_begin_ = plan.stage_begin;
  return prog;
}

}  // namespace flopsim::rtl
