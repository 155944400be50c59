#include "fault/hardening.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "fault/secded.hpp"

namespace flopsim::fault {

const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::kNone: return "none";
    case Scheme::kParity: return "parity";
    case Scheme::kResidue: return "residue";
    case Scheme::kDuplicate: return "dup";
    case Scheme::kTmr: return "tmr";
    case Scheme::kEcc: return "ecc";
  }
  return "unknown";
}

std::optional<Scheme> try_parse_scheme(const std::string& name) {
  if (name == "none") return Scheme::kNone;
  if (name == "parity") return Scheme::kParity;
  if (name == "residue") return Scheme::kResidue;
  if (name == "dup" || name == "duplicate") return Scheme::kDuplicate;
  if (name == "tmr") return Scheme::kTmr;
  if (name == "ecc" || name == "secded") return Scheme::kEcc;
  return std::nullopt;
}

Scheme parse_scheme(const std::string& name) {
  if (const std::optional<Scheme> s = try_parse_scheme(name)) return *s;
  throw std::invalid_argument("unknown hardening scheme: " + name);
}

HardeningCost hardening_cost(const units::FpUnit& unit, Scheme scheme) {
  const device::TechModel& tech = unit.config().tech;
  const device::Objective obj = unit.config().objective;
  HardeningCost c;
  const rtl::AreaBreakdown a = unit.area();
  c.base = a.total;
  c.base_freq_mhz = unit.timing().freq_mhz;
  c.base_power_mw_100 = power::unit_power(unit, 100.0).total_mw();
  c.freq_mhz = c.base_freq_mhz;

  const int w = unit.format().total_bits();
  const int stages = unit.stages();
  device::Resources oh;
  double extra_power = 0.0;
  switch (scheme) {
    case Scheme::kNone:
      break;
    case Scheme::kParity: {
      // One parity FF per stage latch word plus a LUT XOR reduction over
      // the latched bits, checked in shadow one stage downstream — the
      // check never sits on the data critical path.
      oh.ffs = 2 * stages;                 // generate + check pipeline bits
      oh.luts = (a.pipeline_ffs + 2) / 3;  // XOR tree, 3 fresh inputs/LUT
      oh.slices = (oh.luts + 1) / 2;
      extra_power = power::estimate_power(oh, 100.0, 0.5, tech).total_mw();
      break;
    }
    case Scheme::kResidue: {
      // Mod-3 residue generators over both operands and the result, a
      // 2-bit residue channel pipelined alongside the data, and a final
      // comparator. All off the data critical path.
      oh.luts = 2 * w;
      oh.ffs = 4 * stages;
      oh.slices = (oh.luts + 1) / 2 + stages;
      extra_power = power::estimate_power(oh, 100.0, 0.5, tech).total_mw();
      break;
    }
    case Scheme::kDuplicate: {
      device::Resources cmp = tech.comparator_area(w + 9, obj);
      cmp.ffs += 1;  // registered error flag
      oh = a.total + cmp;
      c.extra_latency_cycles = 1;  // registered compare stage
      extra_power = c.base_power_mw_100 +
                    power::estimate_power(cmp, 100.0, 0.5, tech).total_mw();
      break;
    }
    case Scheme::kTmr: {
      device::Resources voter;
      voter.luts = w + 9;  // one majority LUT per result/flag/valid bit
      voter.ffs = w + 9;   // registered voted output
      voter.slices = (voter.luts + 1) / 2;
      oh = a.total + a.total + voter;
      c.extra_latency_cycles = 1;  // registered vote stage
      // The vote stage must itself make timing (it never limits in
      // practice: one LUT level).
      const double voter_period =
          tech.lut_logic_delay(obj) + tech.register_overhead_ns();
      c.freq_mhz = std::min(c.base_freq_mhz, 1000.0 / voter_period);
      extra_power = 2.0 * c.base_power_mw_100 +
                    power::estimate_power(voter, 100.0, 0.5, tech).total_mw();
      break;
    }
    case Scheme::kEcc: {
      // SECDED(72,64) encoder + decoder/corrector on the accumulator BRAM
      // port; the check byte rides the BRAM parity bits (no extra BRAM).
      // The corrector adds one registered stage on the read path.
      oh = secded_area(tech, obj);
      c.extra_latency_cycles = 1;
      extra_power = power::estimate_power(oh, 100.0, 0.5, tech).total_mw();
      break;
    }
  }
  c.overhead = oh;
  c.total = c.base + oh;
  c.power_mw_100 = c.base_power_mw_100 + extra_power;
  c.area_factor = c.base.slices > 0
                      ? static_cast<double>(c.total.slices) / c.base.slices
                      : 1.0;
  c.freq_factor = c.base_freq_mhz > 0.0 ? c.freq_mhz / c.base_freq_mhz : 1.0;
  c.power_factor = c.base_power_mw_100 > 0.0
                       ? c.power_mw_100 / c.base_power_mw_100
                       : 1.0;
  return c;
}

namespace {

int copy_count(Scheme s) {
  switch (s) {
    case Scheme::kDuplicate: return 2;
    case Scheme::kTmr: return 3;
    default: return 1;
  }
}

bool same_output(const std::optional<units::UnitOutput>& a,
                 const std::optional<units::UnitOutput>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return a->result == b->result && a->flags == b->flags;
}

}  // namespace

HardenedUnit::HardenedUnit(units::UnitKind kind, fp::FpFormat fmt,
                           const units::UnitConfig& cfg, Scheme scheme)
    : HardenedUnit(units::FpUnit(kind, fmt, cfg), scheme) {}

HardenedUnit::HardenedUnit(units::FpUnit primary, Scheme scheme)
    : scheme_(scheme) {
  copies_.reserve(static_cast<std::size_t>(copy_count(scheme)));
  copies_.push_back(std::move(primary));
  for (int i = 1; i < copy_count(scheme); ++i) {
    copies_.push_back(copies_.front().clone());
  }
}

FaultInjector& HardenedUnit::arm(const FaultCampaign& campaign) {
  injector_.emplace(campaign.make_injector());
  copies_.front().set_latch_observer(&*injector_);
  seen_applied_ = 0;
  return *injector_;
}

void HardenedUnit::disarm() {
  copies_.front().set_latch_observer(nullptr);
  injector_.reset();
  seen_applied_ = 0;
}

HardenedUnit::Output HardenedUnit::step(
    const std::optional<units::UnitInput>& in) {
  if (scheme_ == Scheme::kResidue && in.has_value()) {
    // The idealized residue channel carries the golden significand residue
    // alongside the data; model it with the combinational reference.
    expected_.push(copies_.front().evaluate(*in));
  }
  for (units::FpUnit& copy : copies_) copy.step(in);

  Output r;
  r.raw = copies_.front().output();
  switch (scheme_) {
    case Scheme::kNone:
    case Scheme::kEcc:  // storage scheme: the unit datapath is unhardened
      r.out = r.raw;
      break;
    case Scheme::kParity:
      r.out = r.raw;
      if (injector_.has_value() &&
          injector_->applied().size() > seen_applied_) {
        // Every latched word carries parity: any injected flip in a latch
        // (data, valid, or flags) trips the downstream check.
        seen_applied_ = injector_->applied().size();
        r.mismatch = true;
      }
      break;
    case Scheme::kResidue: {
      r.out = r.raw;
      if (r.raw.has_value() && !expected_.empty()) {
        const units::UnitOutput golden = expected_.front();
        expected_.pop();
        const fp::u64 frac_mask = copies_.front().format().frac_mask();
        r.mismatch = ((r.raw->result ^ golden.result) & frac_mask) != 0;
      }
      break;
    }
    case Scheme::kDuplicate: {
      const std::optional<units::UnitOutput> twin = copies_[1].output();
      r.mismatch = !same_output(r.raw, twin);
      r.out = r.raw;
      break;
    }
    case Scheme::kTmr: {
      const std::optional<units::UnitOutput> o0 = r.raw;
      const std::optional<units::UnitOutput> o1 = copies_[1].output();
      const std::optional<units::UnitOutput> o2 = copies_[2].output();
      r.mismatch = !same_output(o0, o1) || !same_output(o1, o2);
      if (o0.has_value() && o1.has_value() && o2.has_value()) {
        units::UnitOutput voted;
        voted.result = (o0->result & o1->result) | (o0->result & o2->result) |
                       (o1->result & o2->result);
        voted.flags = static_cast<std::uint8_t>((o0->flags & o1->flags) |
                                                (o0->flags & o2->flags) |
                                                (o1->flags & o2->flags));
        r.out = voted;
      } else {
        // DONE bits disagree: copies 1 and 2 are never injected, so the
        // majority is whatever they report.
        r.out = o1.has_value() == o2.has_value() ? o1 : o0;
      }
      break;
    }
  }
  if (r.mismatch) ++detections_;
  return r;
}

void HardenedUnit::reset() {
  for (units::FpUnit& copy : copies_) copy.reset();
  expected_ = {};
  detections_ = 0;
  seen_applied_ = 0;
}

}  // namespace flopsim::fault
