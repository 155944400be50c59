#include "fault/fault.hpp"

#include <limits>
#include <stdexcept>

#include "fault/secded.hpp"

namespace flopsim::fault {

const char* to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kStageLatch: return "latch";
    case FaultSite::kAccumulator: return "accumulator";
    case FaultSite::kConfig: return "config";
  }
  return "unknown";
}

long last_active_cycle(const Fault& f) {
  if (f.site != FaultSite::kConfig) return f.cycle;
  return f.repair_cycle >= 0 ? f.repair_cycle - 1
                             : std::numeric_limits<long>::max();
}

FaultInjector::FaultInjector(std::vector<Fault> faults)
    : faults_(std::move(faults)),
      armed_(faults_.size(), 1),
      logged_(faults_.size(), 0) {
  for (const Fault& f : faults_) {
    const int bit_limit =
        f.site == FaultSite::kAccumulator ? kSecdedWordBits : 64;
    if (f.bit < 0 || f.bit >= bit_limit) {
      throw std::invalid_argument("FaultInjector: bit out of range");
    }
    if (f.site == FaultSite::kStageLatch &&
        (f.lane >= rtl::kMaxSignals || f.lane < kFlagsLane)) {
      throw std::invalid_argument("FaultInjector: bad latch lane");
    }
    if (f.site == FaultSite::kConfig) {
      // Config upsets rewire datapath logic: data lanes only, and the
      // stuck mask must name at least one driven bit.
      if (f.lane < 0 || f.lane >= rtl::kMaxSignals) {
        throw std::invalid_argument("FaultInjector: bad config lane");
      }
      if (f.mask == 0) {
        throw std::invalid_argument("FaultInjector: empty config stuck mask");
      }
    }
  }
}

void FaultInjector::apply_latch_fault(std::size_t i, rtl::SignalSet& latch) {
  const Fault& f = faults_[i];
  AppliedFault log{f, 0, 0};
  if (f.lane == kValidLane) {
    log.before = latch.valid ? 1 : 0;
    latch.valid = !latch.valid;
    log.after = latch.valid ? 1 : 0;
  } else if (f.lane == kFlagsLane) {
    log.before = latch.flags;
    latch.flags ^= static_cast<std::uint8_t>(1u << (f.bit & 7));
    log.after = latch.flags;
  } else {
    log.before = latch[f.lane];
    latch[f.lane] ^= fp::u64{1} << f.bit;
    log.after = latch[f.lane];
  }
  applied_.push_back(log);
}

void FaultInjector::on_latch(long cycle, int stage, rtl::SignalSet& latch) {
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (!armed_[i]) continue;
    const Fault& f = faults_[i];
    if (f.index != stage) continue;
    if (f.site == FaultSite::kStageLatch) {
      if (f.cycle != cycle) continue;
      armed_[i] = 0;
      apply_latch_fault(i, latch);
    } else if (f.site == FaultSite::kConfig) {
      if (cycle < f.cycle) continue;
      if (f.repair_cycle >= 0 && cycle >= f.repair_cycle) {
        armed_[i] = 0;  // scrubbed back; stop checking
        continue;
      }
      const fp::u64 before = latch[f.lane];
      latch[f.lane] = (before & ~f.mask) | (f.stuck & f.mask);
      if (!logged_[i]) {
        logged_[i] = 1;
        applied_.push_back(AppliedFault{f, before, latch[f.lane]});
      }
    }
  }
}

void FaultInjector::on_storage(long cycle, std::vector<fp::u64>& acc) {
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (!armed_[i]) continue;
    const Fault& f = faults_[i];
    if (f.site != FaultSite::kAccumulator || f.cycle != cycle ||
        f.bit >= kSecdedDataBits) {
      continue;  // check-byte strikes are delivered via on_check_bits
    }
    armed_[i] = 0;
    if (f.index < 0 || f.index >= static_cast<int>(acc.size())) continue;
    AppliedFault log{f, acc[static_cast<std::size_t>(f.index)], 0};
    acc[static_cast<std::size_t>(f.index)] ^= fp::u64{1} << f.bit;
    log.after = acc[static_cast<std::size_t>(f.index)];
    applied_.push_back(log);
  }
}

void FaultInjector::on_check_bits(long cycle,
                                  std::vector<std::uint8_t>& check) {
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (!armed_[i]) continue;
    const Fault& f = faults_[i];
    if (f.site != FaultSite::kAccumulator || f.cycle != cycle ||
        f.bit < kSecdedDataBits) {
      continue;
    }
    armed_[i] = 0;
    if (f.index < 0 || f.index >= static_cast<int>(check.size())) continue;
    AppliedFault log{f, check[static_cast<std::size_t>(f.index)], 0};
    check[static_cast<std::size_t>(f.index)] ^=
        static_cast<std::uint8_t>(1u << (f.bit - kSecdedDataBits));
    log.after = check[static_cast<std::size_t>(f.index)];
    applied_.push_back(log);
  }
}

void FaultInjector::rewind() {
  armed_.assign(faults_.size(), 1);
  logged_.assign(faults_.size(), 0);
  applied_.clear();
}

}  // namespace flopsim::fault
