// Power of a generated FP unit — the quantity of the paper's Figure 3 and
// Table 4 ("power values include only the clocks, signal and logic power").
#pragma once

#include "power/power_model.hpp"
#include "units/fp_unit.hpp"

namespace flopsim::power {

/// Average combinational pieces per pipeline stage — drives glitching.
double avg_pieces_per_stage(const rtl::PieceChain& chain,
                            const rtl::PipelinePlan& plan);
double avg_pieces_per_stage(const units::FpUnit& unit);

/// Dynamic power of `chain` pipelined by `plan`, occupying `area` (its
/// evaluate_area total), at `freq_mhz`. `base_activity` is the data toggle
/// rate (0.5 default, or power::measure_activity's result); glitch
/// amplification from the plan's stage depth is applied on top.
PowerBreakdown unit_power(const rtl::PieceChain& chain,
                          const rtl::PipelinePlan& plan,
                          const device::Resources& area,
                          const device::TechModel& tech, double freq_mhz,
                          double base_activity = 0.5,
                          double glitch_coeff = 0.45);
/// The same for a built unit: its chain, plan, area and tech model.
PowerBreakdown unit_power(const units::FpUnit& unit, double freq_mhz,
                          double base_activity = 0.5,
                          double glitch_coeff = 0.45);

}  // namespace flopsim::power
