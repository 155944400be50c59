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

/// Observer of per-lane accesses, used by the lint engine (src/lint/) to
/// infer each piece's read/write sets. Attach with ScopedLaneListener; the
/// hook is thread-local, so an attached listener never observes (or slows)
/// simulations on other threads, and the detached fast path is one
/// predictable branch per access.
class LaneAccessListener {
 public:
  virtual ~LaneAccessListener() = default;
  /// `lane` is the raw index (possibly out of [0, kMaxSignals) — the
  /// listener is the bounds check); `mutable_access` distinguishes the
  /// non-const operator[] (read or write) from the const one (read).
  virtual void on_access(int lane, bool mutable_access) = 0;
};

namespace detail {
inline thread_local LaneAccessListener* lane_listener = nullptr;
/// Safe landing slot for out-of-range accesses while a listener is
/// attached: the access is reported instead of indexing past the array.
inline thread_local fp::u64 lane_scratch = 0;
}  // namespace detail

/// RAII attach/restore of the calling thread's lane listener.
class ScopedLaneListener {
 public:
  explicit ScopedLaneListener(LaneAccessListener* listener)
      : prev_(detail::lane_listener) {
    detail::lane_listener = listener;
  }
  ~ScopedLaneListener() { detail::lane_listener = prev_; }
  ScopedLaneListener(const ScopedLaneListener&) = delete;
  ScopedLaneListener& operator=(const ScopedLaneListener&) = delete;

 private:
  LaneAccessListener* prev_;
};

struct SignalSet {
  std::array<fp::u64, kMaxSignals> lane{};
  bool valid = false;
  std::uint8_t flags = 0;  ///< fp::Flags bits, carried forward per stage

  friend bool operator==(const SignalSet&, const SignalSet&) = default;

  fp::u64& operator[](int i) {
    if (detail::lane_listener != nullptr) {
      detail::lane_listener->on_access(i, /*mutable_access=*/true);
      if (i < 0 || i >= kMaxSignals) return detail::lane_scratch;
    }
    return lane[static_cast<std::size_t>(i)];
  }
  const fp::u64& operator[](int i) const {
    if (detail::lane_listener != nullptr) {
      detail::lane_listener->on_access(i, /*mutable_access=*/false);
      if (i < 0 || i >= kMaxSignals) return detail::lane_scratch;
    }
    return lane[static_cast<std::size_t>(i)];
  }
};

}  // namespace flopsim::rtl
