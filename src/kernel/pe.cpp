#include "kernel/pe.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "fault/secded.hpp"

namespace flopsim::kernel {

namespace {

template <typename T>
std::vector<T> first_rows(const std::vector<T>& v, int rows) {
  const auto kept = std::min(static_cast<std::size_t>(rows), v.size());
  return {v.begin(), v.begin() + static_cast<std::ptrdiff_t>(kept)};
}

template <typename T>
bool is_prefix(const std::vector<T>& part, const std::vector<T>& whole) {
  return part.size() <= whole.size() &&
         std::equal(part.begin(), part.end(), whole.begin());
}

}  // namespace

units::UnitConfig PeConfig::adder_config() const {
  units::UnitConfig c;
  c.stages = adder_stages;
  c.rounding = rounding;
  c.objective = objective;
  c.tech = tech;
  return c;
}

units::UnitConfig PeConfig::mult_config() const {
  units::UnitConfig c = adder_config();
  c.stages = mult_stages;
  return c;
}

units::UnitConfig PeConfig::mac_config() const {
  units::UnitConfig c = adder_config();
  c.stages = adder_stages + mult_stages;
  return c;
}

ProcessingElement::ProcessingElement(const PeConfig& cfg)
    : ProcessingElement(
          cfg,
          units::FpUnit(units::UnitKind::kMultiplier, cfg.fmt,
                        cfg.mult_config()),
          units::FpUnit(units::UnitKind::kAdder, cfg.fmt, cfg.adder_config()),
          cfg.use_fused_mac ? std::optional<units::FpUnit>(std::in_place,
                                                           units::UnitKind::kMac,
                                                           cfg.fmt,
                                                           cfg.mac_config())
                            : std::nullopt) {}

ProcessingElement::ProcessingElement(const PeConfig& cfg, units::FpUnit mult,
                                     units::FpUnit adder,
                                     std::optional<units::FpUnit> mac)
    : cfg_(cfg),
      mult_(std::move(mult)),
      adder_(std::move(adder)),
      mac_(std::move(mac)),
      acc_(static_cast<std::size_t>(cfg.storage_rows), 0),
      acc_check_(cfg.ecc_accumulators
                     ? static_cast<std::size_t>(cfg.storage_rows)
                     : 0,
                 fault::secded_encode(0)),
      pending_writes_(static_cast<std::size_t>(cfg.storage_rows), 0) {
  if (cfg.storage_rows <= 0) {
    throw std::invalid_argument("PeConfig: storage_rows must be positive");
  }
}

ProcessingElement ProcessingElement::clone(int storage_rows) const {
  PeConfig cfg = cfg_;
  if (storage_rows > 0) cfg.storage_rows = storage_rows;
  return ProcessingElement(
      cfg, mult_.clone(), adder_.clone(),
      mac_.has_value() ? std::optional<units::FpUnit>(mac_->clone())
                       : std::nullopt);
}

fp::u64 ecc_read(fp::u64& data, std::uint8_t& check, long& corrections,
                 long& detections) {
  const fault::SecdedDecode d = fault::secded_decode(data, check);
  switch (d.status) {
    case fault::SecdedStatus::kClean:
      break;
    case fault::SecdedStatus::kCorrectedData:
    case fault::SecdedStatus::kCorrectedCheck:
      ++corrections;
      data = d.data;
      check = d.check;
      break;
    case fault::SecdedStatus::kDoubleError:
      ++detections;
      break;
  }
  return d.data;
}

std::optional<units::UnitOutput> run_accumulate(
    const rtl::PieceChain& chain, const rtl::PipelinePlan& plan,
    const units::UnitInput& in, long entry, rtl::LatchObserver* observer) {
  rtl::SignalSet s = units::FpUnit::pack(in);
  // Unobserved, an invalid bundle can stop: nothing can revive it.
  for (int st = 0; st < plan.stages() && (s.valid || observer != nullptr);
       ++st) {
    if (s.valid) rtl::run_stage(chain, plan, st, s);
    if (observer != nullptr) observer->on_latch(entry + st, st, s);
  }
  if (!s.valid) return std::nullopt;
  return units::UnitOutput{s[units::detail::kLaneResult], s.flags};
}

fp::u64 ProcessingElement::read_acc(int row) {
  const std::size_t r = static_cast<std::size_t>(row);
  if (!cfg_.ecc_accumulators) return acc_[r];
  return ecc_read(acc_[r], acc_check_[r], ecc_corrections_, ecc_detections_);
}

void ProcessingElement::write_acc(int row, fp::u64 v) {
  const std::size_t r = static_cast<std::size_t>(row);
  acc_[r] = v;
  if (cfg_.ecc_accumulators) acc_check_[r] = fault::secded_encode(v);
}

fp::u64 ProcessingElement::acc(int row) const {
  const std::size_t r = static_cast<std::size_t>(row);
  if (!cfg_.ecc_accumulators) return acc_.at(r);
  // Decoded from copies: the architectural read repairs nothing.
  fp::u64 data = acc_.at(r);
  std::uint8_t check = acc_check_.at(r);
  return ecc_read(data, check, ecc_corrections_, ecc_detections_);
}

fp::u64 ProcessingElement::stored_word(int row) const {
  return acc_.at(static_cast<std::size_t>(row));
}

std::uint8_t ProcessingElement::stored_check(int row) const {
  return cfg_.ecc_accumulators ? acc_check_.at(static_cast<std::size_t>(row))
                               : 0;
}

void ProcessingElement::set_acc(int row, fp::u64 v) {
  acc_.at(static_cast<std::size_t>(row)) = v;
  if (cfg_.ecc_accumulators) {
    acc_check_.at(static_cast<std::size_t>(row)) = fault::secded_encode(v);
  }
}

int ProcessingElement::total_latency() const {
  return mac_.has_value() ? mac_->latency()
                          : mult_.latency() + adder_.latency();
}

ProcessingElement::AccumulateClocks ProcessingElement::accumulate_clocks(
    long issue) const {
  if (mac_.has_value()) {
    return {issue, issue, issue, issue + mac_->latency() - 1};
  }
  // A bundle shows at a unit's output on its last stage's clock.
  const long read = issue + mult_.latency() - 1;
  return {issue, read, read + 1, read + adder_.latency()};
}

void ProcessingElement::step(const std::optional<MacIssue>& issue) {
  if (mac_.has_value()) {
    // Fused datapath: acc[row] is the addend, read at issue time — the
    // hazard window is the full MAC latency.
    if (issue.has_value()) {
      if (issue->row < 0 || issue->row >= cfg_.storage_rows) {
        throw std::out_of_range("ProcessingElement: accumulator row");
      }
      const std::size_t row = static_cast<std::size_t>(issue->row);
      if (pending_writes_[row] > 0) ++hazards_;
      const units::UnitInput in{issue->a, issue->b, false,
                                read_acc(issue->row)};
      mac_->step(in);
      adder_rows_.push_back(issue->row);
      ++pending_writes_[row];
      ++mac_issues_;
      ++in_flight_;
    } else {
      mac_->step(std::nullopt);
    }
    if (const auto out = mac_->output()) {
      const int row = adder_rows_.front();
      adder_rows_.pop_front();
      write_acc(row, out->result);
      flags_ |= out->flags;
      --pending_writes_[static_cast<std::size_t>(row)];
      --in_flight_;
    }
    if (storage_observer_ != nullptr) {
      storage_observer_->on_storage(cycles_, acc_);
      if (cfg_.ecc_accumulators) {
        storage_observer_->on_check_bits(cycles_, acc_check_);
      }
    }
    ++cycles_;
    return;
  }

  // Multiplier front end.
  if (issue.has_value()) {
    if (issue->row < 0 || issue->row >= cfg_.storage_rows) {
      throw std::out_of_range("ProcessingElement: accumulator row");
    }
    mult_.step(units::UnitInput{issue->a, issue->b, false});
    mult_rows_.push_back(issue->row);
    ++mac_issues_;
    ++in_flight_;
  } else {
    mult_.step(std::nullopt);
  }

  // The operand register between the units issues into the adder, and the
  // fresh product (paired with the accumulator read — where a RAW hazard
  // can bite) loads it for next cycle. Total MAC latency is Lmul + Ladd.
  adder_.step(add_stage_reg_);
  add_stage_reg_.reset();
  if (const auto prod = mult_.output()) {
    const int row = mult_rows_.front();
    mult_rows_.pop_front();
    if (pending_writes_[static_cast<std::size_t>(row)] > 0) ++hazards_;
    add_stage_reg_ = units::UnitInput{prod->result, read_acc(row), false};
    flags_ |= prod->flags;
    adder_rows_.push_back(row);
    ++pending_writes_[static_cast<std::size_t>(row)];
  }

  // Writeback.
  if (const auto sum = adder_.output()) {
    const int row = adder_rows_.front();
    adder_rows_.pop_front();
    write_acc(row, sum->result);
    flags_ |= sum->flags;
    --pending_writes_[static_cast<std::size_t>(row)];
    --in_flight_;
  }
  if (storage_observer_ != nullptr) {
    storage_observer_->on_storage(cycles_, acc_);
    if (cfg_.ecc_accumulators) {
      storage_observer_->on_check_bits(cycles_, acc_check_);
    }
  }
  ++cycles_;
}

void ProcessingElement::clear() {
  std::fill(acc_.begin(), acc_.end(), 0);
  std::fill(acc_check_.begin(), acc_check_.end(), fault::secded_encode(0));
  std::fill(pending_writes_.begin(), pending_writes_.end(), 0);
  mult_rows_.clear();
  adder_rows_.clear();
  mult_.reset();
  adder_.reset();
  if (mac_.has_value()) mac_->reset();
  add_stage_reg_.reset();
  in_flight_ = 0;
  mac_issues_ = 0;
  hazards_ = 0;
  cycles_ = 0;
  flags_ = 0;
  ecc_corrections_ = 0;
  ecc_detections_ = 0;
}

ProcessingElement::State ProcessingElement::save(int rows) const {
  if (rows < 0 || rows > cfg_.storage_rows) {
    throw std::out_of_range("ProcessingElement: state rows");
  }
  State s;
  s.units = {mult_.sim().state(), adder_.sim().state()};
  if (mac_.has_value()) s.units.push_back(mac_->sim().state());
  s.add_stage_reg = add_stage_reg_;
  s.mult_rows.assign(mult_rows_.begin(), mult_rows_.end());
  s.adder_rows.assign(adder_rows_.begin(), adder_rows_.end());
  s.acc = first_rows(acc_, rows);
  s.acc_check = first_rows(acc_check_, rows);
  s.pending_writes = first_rows(pending_writes_, rows);
  s.in_flight = in_flight_;
  s.mac_issues = mac_issues_;
  s.hazards = hazards_;
  s.ecc_corrections = ecc_corrections_;
  s.ecc_detections = ecc_detections_;
  s.cycles = cycles_;
  s.flags = flags_;
  return s;
}

void ProcessingElement::restore(const State& s) {
  if (s.units.size() != (mac_.has_value() ? 3u : 2u) ||
      s.acc.size() > acc_.size() || s.acc_check.size() > acc_check_.size() ||
      s.pending_writes.size() > pending_writes_.size()) {
    throw std::invalid_argument("ProcessingElement: state from another PE");
  }
  mult_.restore(s.units[0]);
  adder_.restore(s.units[1]);
  if (mac_.has_value()) mac_->restore(s.units[2]);
  add_stage_reg_ = s.add_stage_reg;
  mult_rows_.assign(s.mult_rows.begin(), s.mult_rows.end());
  adder_rows_.assign(s.adder_rows.begin(), s.adder_rows.end());
  std::copy(s.acc.begin(), s.acc.end(), acc_.begin());
  std::copy(s.acc_check.begin(), s.acc_check.end(), acc_check_.begin());
  std::copy(s.pending_writes.begin(), s.pending_writes.end(),
            pending_writes_.begin());
  in_flight_ = s.in_flight;
  mac_issues_ = s.mac_issues;
  hazards_ = s.hazards;
  ecc_corrections_ = s.ecc_corrections;
  ecc_detections_ = s.ecc_detections;
  cycles_ = s.cycles;
  flags_ = s.flags;
}

bool ProcessingElement::matches(const State& s) const {
  return flags_ == s.flags && is_prefix(s.acc, acc_) &&
         is_prefix(s.acc_check, acc_check_) && cycles_ == s.cycles &&
         in_flight_ == s.in_flight &&
         mac_issues_ == s.mac_issues && hazards_ == s.hazards &&
         ecc_corrections_ == s.ecc_corrections &&
         ecc_detections_ == s.ecc_detections &&
         s.units.size() == (mac_.has_value() ? 3u : 2u) &&
         mult_.sim().matches(s.units[0]) &&
         adder_.sim().matches(s.units[1]) &&
         (!mac_.has_value() || mac_->sim().matches(s.units[2])) &&
         add_stage_reg_ == s.add_stage_reg &&
         std::ranges::equal(s.mult_rows, mult_rows_) &&
         std::ranges::equal(s.adder_rows, adder_rows_) &&
         is_prefix(s.pending_writes, pending_writes_);
}

device::Resources ProcessingElement::mac_resources() const {
  return mac_.has_value() ? mac_->area().total
                          : adder_.area().total + mult_.area().total;
}

device::Resources ProcessingElement::storage_resources() const {
  device::Resources r;
  const int n = cfg_.fmt.total_bits();
  r.brams = 1;  // accumulator bank
  // Resident-B register, input pass register, and the BRAM access mux.
  r.ffs = 2 * n;
  r.luts = n;
  r.slices = n;
  if (cfg_.ecc_accumulators) {
    r = r + fault::secded_area(cfg_.tech, cfg_.objective);
  }
  return r;
}

device::Resources ProcessingElement::control_resources() const {
  device::Resources r;
  // Counters and comparators for the (k, i) schedule...
  r.slices = 24;
  r.luts = 40;
  r.ffs = 24;
  // ...plus the control shift registers: "the control signals also have to
  // be shifted using shift registers so that the correct schedule of
  // operations is maintained" — their length tracks the pipeline latency.
  const int ctl_bits = 4 * total_latency();
  r.ffs += ctl_bits;
  r.slices += static_cast<int>(
      std::ceil(static_cast<double>(ctl_bits) /
                (cfg_.tech.ffs_per_slice() * cfg_.tech.ff_absorption() + 1)));
  return r;
}

device::Resources ProcessingElement::resources() const {
  return mac_resources() + storage_resources() + control_resources();
}

double ProcessingElement::freq_mhz() const {
  return mac_.has_value() ? mac_->freq_mhz()
                          : std::min(adder_.freq_mhz(), mult_.freq_mhz());
}

}  // namespace flopsim::kernel
