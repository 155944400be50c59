// SignalSet: the bundle of values crossing a pipeline-stage boundary.
//
// The structural FP units are chains of combinational "pieces" (see
// piece.hpp). Between any two pieces a pipeline register may be inserted;
// whatever the downstream pieces still need must then be latched. SignalSet
// is that latch content: a fixed array of 64-bit lanes (each unit assigns
// its own meaning per lane), a valid bit (the paper's DONE signal shifts
// through these), and the exception flags the paper carries forward
// stage-by-stage.
#pragma once

#include <array>
#include <cstdint>

#include "fp/bits.hpp"

namespace flopsim::rtl {

inline constexpr int kMaxSignals = 20;

/// The lane accesses one thread made while a lint probe (src/lint/) listened,
/// from which it infers each piece's read/write sets. Attach with
/// ScopedLaneAccessLog. The log pointer is thread-local, so an attached log
/// never observes (or slows) simulations on other threads, and a detached
/// access tests that pointer and indexes its lane: it writes nothing and
/// calls nothing. An attached access sets its lane's bit, or records an
/// out-of-range index in caller-owned storage (the log is the bounds check).
struct LaneAccessLog {
  static_assert(kMaxSignals <= 32, "one mask bit per lane");
  /// Bit l: lane l accessed through the non-const operator[] (read or write).
  std::uint32_t mutable_lanes = 0;
  /// Bit l: lane l accessed through the const operator[] (a read).
  std::uint32_t const_lanes = 0;
  /// Distinct out-of-range indices, in first-access order, stored in
  /// `out_of_range[0, out_of_range_count)`; the caller owns the storage.
  int* out_of_range = nullptr;
  int out_of_range_count = 0;
  int out_of_range_capacity = 0;
  /// A new out-of-range index found the storage full and went unrecorded:
  /// the caller grows the storage and evaluates again.
  bool out_of_range_full = false;

  /// Logs an access to lane `i` into `lanes` (one of the two masks). False
  /// when `i` is out of range: it is logged as such and touches no lane.
  bool note(int i, std::uint32_t& lanes) {
    if (static_cast<unsigned>(i) < static_cast<unsigned>(kMaxSignals)) {
      lanes |= std::uint32_t{1} << i;
      return true;
    }
    for (int k = 0; k < out_of_range_count; ++k) {
      if (out_of_range[k] == i) return false;
    }
    if (out_of_range_count < out_of_range_capacity) {
      out_of_range[out_of_range_count++] = i;
    } else {
      out_of_range_full = true;
    }
    return false;
  }
};

namespace detail {
inline thread_local LaneAccessLog* lane_log = nullptr;
/// Safe landing slot for out-of-range accesses while a log is attached:
/// the access is recorded instead of indexing past the array.
inline thread_local fp::u64 lane_scratch = 0;
}  // namespace detail

/// RAII attach/restore of the calling thread's lane access log.
class ScopedLaneAccessLog {
 public:
  explicit ScopedLaneAccessLog(LaneAccessLog* log) : prev_(detail::lane_log) {
    detail::lane_log = log;
  }
  ~ScopedLaneAccessLog() { detail::lane_log = prev_; }
  ScopedLaneAccessLog(const ScopedLaneAccessLog&) = delete;
  ScopedLaneAccessLog& operator=(const ScopedLaneAccessLog&) = delete;

 private:
  LaneAccessLog* prev_;
};

struct SignalSet {
  std::array<fp::u64, kMaxSignals> lane{};
  bool valid = false;
  std::uint8_t flags = 0;  ///< fp::Flags bits, carried forward per stage

  friend bool operator==(const SignalSet&, const SignalSet&) = default;

  fp::u64& operator[](int i) {
    if (LaneAccessLog* log = detail::lane_log; log != nullptr) [[unlikely]] {
      if (!log->note(i, log->mutable_lanes)) return detail::lane_scratch;
    }
    return lane[static_cast<std::size_t>(i)];
  }
  const fp::u64& operator[](int i) const {
    if (LaneAccessLog* log = detail::lane_log; log != nullptr) [[unlikely]] {
      if (!log->note(i, log->const_lanes)) return detail::lane_scratch;
    }
    return lane[static_cast<std::size_t>(i)];
  }
};

}  // namespace flopsim::rtl
