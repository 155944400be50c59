#include "analysis/sweep.hpp"

#include <stdexcept>

#include "exec/parallel.hpp"
#include "power/unit_power.hpp"

namespace flopsim::analysis {

const DesignPoint& SweepResult::at_stages(int stages) const {
  for (const DesignPoint& p : points) {
    if (p.stages == stages) return p;
  }
  throw std::out_of_range("SweepResult: no such depth");
}

namespace {

/// The unit `chain` builds, pipelined by `plan`: the values FpUnit's
/// timing(), area(), freq_per_area() and power::unit_power report for it.
DesignPoint design_point(const rtl::PieceChain& chain,
                         const rtl::PipelinePlan& plan,
                         const units::UnitConfig& cfg) {
  DesignPoint p;
  p.stages = plan.stages();
  const rtl::Timing t = rtl::evaluate_timing(chain, plan, cfg.tech);
  p.freq_mhz = t.freq_mhz;
  p.critical_ns = t.critical_ns;
  const rtl::AreaBreakdown a =
      rtl::evaluate_area(chain, plan, cfg.tech, cfg.objective);
  p.area = a.total;
  p.pipeline_ffs = a.pipeline_ffs;
  p.freq_per_area = rtl::freq_per_area(t, a);
  p.power_mw_100 =
      power::unit_power(chain, plan, a.total, cfg.tech, 100.0).total_mw();
  return p;
}

}  // namespace

SweepResult sweep_unit(units::UnitKind kind, fp::FpFormat fmt,
                       device::Objective objective,
                       const device::TechModel& tech, int threads,
                       exec::CancelToken* cancel) {
  SweepResult result;
  result.kind = kind;
  result.fmt = fmt;
  result.objective = objective;

  units::UnitConfig cfg;
  cfg.objective = objective;
  cfg.tech = tech;
  // A unit's chain does not depend on its depth, so the probe's chain and
  // one planner solve give every depth's design without building a unit
  // per depth.
  const units::FpUnit probe(kind, fmt, cfg);
  const rtl::PieceChain& chain = probe.pieces();
  const std::vector<rtl::PipelinePlan> plans = rtl::plan_all_depths(chain);
  const int maxs = static_cast<int>(plans.size());
  result.points.assign(static_cast<std::size_t>(maxs), {});
  // One grid chunk per depth so cancellation lands between depth points;
  // chunk boundaries fixed by the grid keep the per-depth slot writes (and
  // so the result) bit-identical to the legacy chunked loop.
  exec::GridOptions opts;
  opts.chunk = 1;
  opts.cancel = cancel;
  const exec::GridResult grid = exec::parallel_for_grid(
      static_cast<std::size_t>(maxs), threads,
      [&](int /*worker*/, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          result.points[i] = design_point(chain, plans[i], cfg);
        }
      },
      opts);
  if (!grid.complete()) {
    // A partial depth grid is not a usable sweep (selection would quietly
    // run over whatever depths happened to finish) — fail loudly.
    throw exec::Interrupted(cancel != nullptr
                                ? cancel->reason()
                                : exec::CancelToken::Reason::kOther);
  }
  return result;
}

std::vector<fp::FpFormat> paper_formats() {
  return {fp::FpFormat::binary32(), fp::FpFormat::binary48(),
          fp::FpFormat::binary64()};
}

}  // namespace flopsim::analysis
