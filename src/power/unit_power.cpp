#include "power/unit_power.hpp"

namespace flopsim::power {

double avg_pieces_per_stage(const rtl::PieceChain& chain,
                            const rtl::PipelinePlan& plan) {
  return static_cast<double>(chain.size()) / plan.stages();
}

double avg_pieces_per_stage(const units::FpUnit& unit) {
  return avg_pieces_per_stage(unit.pieces(), unit.plan());
}

PowerBreakdown unit_power(const rtl::PieceChain& chain,
                          const rtl::PipelinePlan& plan,
                          const device::Resources& area,
                          const device::TechModel& tech, double freq_mhz,
                          double base_activity, double glitch_coeff) {
  const double activity =
      base_activity *
      glitch_factor(avg_pieces_per_stage(chain, plan), glitch_coeff);
  return estimate_power(area, freq_mhz, activity, tech);
}

PowerBreakdown unit_power(const units::FpUnit& unit, double freq_mhz,
                          double base_activity, double glitch_coeff) {
  return unit_power(unit.pieces(), unit.plan(), unit.area().total,
                    unit.config().tech, freq_mhz, base_activity,
                    glitch_coeff);
}

}  // namespace flopsim::power
