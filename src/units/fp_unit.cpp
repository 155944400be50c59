#include "units/fp_unit.hpp"

#include <stdexcept>

namespace flopsim::units {

const char* to_string(UnitKind k) {
  switch (k) {
    case UnitKind::kAdder: return "fp_add";
    case UnitKind::kMultiplier: return "fp_mul";
    case UnitKind::kDivider: return "fp_div";
    case UnitKind::kSqrt: return "fp_sqrt";
    case UnitKind::kMac: return "fp_mac";
  }
  return "fp_unknown";
}

namespace {

rtl::PieceChain build_chain(UnitKind kind, fp::FpFormat fmt,
                            const UnitConfig& cfg) {
  cfg.validate();
  switch (kind) {
    case UnitKind::kAdder: return detail::build_adder_chain(fmt, cfg);
    case UnitKind::kMultiplier: return detail::build_multiplier_chain(fmt, cfg);
    case UnitKind::kDivider: return detail::build_divider_chain(fmt, cfg);
    case UnitKind::kSqrt: return detail::build_sqrt_chain(fmt, cfg);
    case UnitKind::kMac: return detail::build_mac_chain(fmt, cfg);
  }
  throw std::invalid_argument("FpUnit: unknown kind");
}

}  // namespace

rtl::SignalSet FpUnit::pack(const UnitInput& in) {
  rtl::SignalSet s;
  s.valid = true;
  s[detail::kLaneInA] = in.a;
  s[detail::kLaneInB] = in.b;
  s[detail::kLaneInCtl] = in.subtract ? 1 : 0;
  s[detail::kLaneInC] = in.c;
  return s;
}

FpUnit::FpUnit(UnitKind kind, fp::FpFormat fmt, const UnitConfig& cfg)
    : kind_(kind),
      fmt_(fmt),
      cfg_(cfg),
      chain_(std::make_shared<const rtl::PieceChain>(
          build_chain(kind, fmt, cfg))),
      plan_(rtl::plan_pipeline(*chain_, cfg.stages)),
      sim_(chain_.get(), plan_) {}

FpUnit::FpUnit(const FpUnit& other)
    : kind_(other.kind_),
      fmt_(other.fmt_),
      cfg_(other.cfg_),
      chain_(other.chain_),
      plan_(other.plan_),
      sim_(chain_.get(), plan_) {}

std::string FpUnit::name() const {
  return std::string(to_string(kind_)) + "<" + fmt_.name() + ">/s" +
         std::to_string(stages());
}

rtl::Timing FpUnit::timing() const {
  return rtl::evaluate_timing(*chain_, plan_, cfg_.tech);
}

rtl::AreaBreakdown FpUnit::area() const {
  return rtl::evaluate_area(*chain_, plan_, cfg_.tech, cfg_.objective);
}

double FpUnit::freq_per_area() const {
  return rtl::freq_per_area(timing(), area());
}

void FpUnit::step(const std::optional<UnitInput>& in) {
  if (in.has_value()) {
    sim_.step(FpUnit::pack(*in));
  } else {
    sim_.step(std::nullopt);
  }
}

std::optional<UnitOutput> FpUnit::output() const {
  const rtl::SignalSet& out = sim_.output();
  if (!out.valid) return std::nullopt;
  return UnitOutput{out[detail::kLaneResult], out.flags};
}

void FpUnit::reset() { sim_.reset(); }

UnitOutput FpUnit::evaluate(const UnitInput& in) const {
  rtl::SignalSet s = FpUnit::pack(in);
  rtl::evaluate_chain(*chain_, s);
  return UnitOutput{s[detail::kLaneResult], s.flags};
}

}  // namespace flopsim::units
