// Periodic campaign progress to stderr.
//
// Long Monte-Carlo campaigns (tens of thousands of kernel re-runs) were
// previously silent until done. ProgressReporter prints a rate-limited
// `\r<label>: done/total trials (rate/s)` line, but only when stderr is a
// TTY (so CI logs and test output stay clean); FLOPSIM_PROGRESS=1 forces
// it on, FLOPSIM_PROGRESS=0 forces it off.
//
// tick(n) is what a campaign calls as each chunk of n trials finishes:
// one relaxed atomic increment plus, at most every ~200 ms, a
// compare-exchange-guarded fprintf from whichever caller crossed the
// interval. The trial work itself is never synchronized, and the global
// trial counter it feeds
// (`campaign.trials_completed` in the registry) is an exact integer sum —
// determinism untouched.
#pragma once

#include <atomic>
#include <chrono>
#include <string>

#include "obs/metrics.hpp"

namespace flopsim::obs {

class ProgressReporter {
 public:
  /// @param label short campaign name shown on the line
  /// @param total expected trials (0 renders as "?")
  /// @param reg   registry whose `campaign.trials_completed` counter the
  ///              ticks also feed
  ProgressReporter(std::string label, long total,
                   Registry& reg = Registry::global());
  /// Prints the final line (with a newline) if anything was reported.
  ~ProgressReporter();
  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  void tick(long n = 1);
  long done() const { return done_.load(std::memory_order_relaxed); }

  /// TTY + FLOPSIM_PROGRESS resolution (exposed for tests).
  static bool enabled_by_environment();

 private:
  void report(bool final_line);

  std::string label_;
  long total_;
  Counter& registry_counter_;
  bool enabled_;
  std::atomic<long> done_{0};
  std::atomic<long long> last_report_us_{0};
  std::atomic<bool> printed_{false};
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace flopsim::obs
