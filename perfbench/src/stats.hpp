// The benchmark's own statistics: percentiles and the tail rule,
// closed-loop request accounting, failure accounting, and layer
// reconciliation. Pure arithmetic, unit-tested in tests/stats_test.cpp.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile, `q` in [0, 100]: rank q/100 * (n-1)
/// between the two nearest order statistics. 0 for an empty sample.
double percentile(std::vector<double> v, double q);

/// The tail rule: the highest level of the ladder {99, 95, 90, 75, 50}
/// that leaves at least 10 samples beyond it (n * (1 - q/100) >= 10).
/// 50 when no level qualifies; `qualified` then comes back false.
double tail_level(std::size_t n, bool* qualified = nullptr);

/// A timing sample reduced the way every metric is reported: median,
/// p99, the tail-rule percentile, and the sample count.
struct Distribution {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double tail_level = 50.0;  ///< percentile the tail value sits at
  bool tail_qualified = false;
  double tail = 0.0;
};
Distribution summarize(const std::vector<double>& v);

/// Closed-loop client accounting: each client has at most one request in
/// flight and sends its next one only after the previous reply arrived.
/// Every client thread touches only its own slot, so recording needs no
/// lock; totals() is read after the client threads are joined.
class ClosedLoop {
 public:
  explicit ClosedLoop(int clients);

  /// Client `c` sends a request at time `t_s` (seconds, any epoch).
  /// Throws std::logic_error if `c` already has one in flight.
  void sent(int c, double t_s);
  /// The reply arrived at `t_s`; `ok` false counts the request failed
  /// (non-zero status, byte mismatch). Throws if nothing is in flight.
  void received(int c, double t_s, bool ok);
  /// The in-flight request never got a reply (connection lost): failed.
  void lost(int c);

  struct Totals {
    long attempted = 0;    ///< requests sent
    long completed = 0;    ///< replies with ok == true
    long failed = 0;       ///< ok == false replies plus lost requests
    long outstanding = 0;  ///< sent, neither answered nor lost
    double window_s = 0.0;  ///< first send to last reply, over all clients
    double per_s = 0.0;     ///< completed / window_s
    std::vector<double> latency_us;  ///< ok replies only
  };
  Totals totals() const;

 private:
  struct Slot {
    bool in_flight = false;
    double sent_at = 0.0;
    double first_sent = -1.0;
    double last_reply = -1.0;
    long attempted = 0;
    long completed = 0;
    long failed = 0;
    std::vector<double> latency_us;
  };
  std::vector<Slot> slots_;
};

/// Failed operations against attempted ones. A workload counts its
/// operations in one unit (injected trials for campaigns, requests for
/// the server); a check that fails a whole campaign charges all of its
/// trials. failed() never exceeds attempted.
struct FailTally {
  long attempted = 0;
  long bad_status = 0;      ///< non-zero request statuses, 75 included
  long byte_mismatch = 0;   ///< repeat of a key returned other bytes
  long tally_mismatch = 0;  ///< trials of campaigns whose tallies differ
  long dropped = 0;         ///< trials the campaign never ran

  long failed() const;
  /// failed() / attempted; 0 when nothing was attempted.
  double frac() const;
};

/// "Layer costs must add up": the share of a wall time that the layer
/// spans do not account for. Negative when the spans overlap the wall.
struct Reconciliation {
  double wall_us = 0.0;
  double accounted_us = 0.0;
  double unaccounted_frac() const {
    return wall_us > 0.0 ? 1.0 - accounted_us / wall_us : 0.0;
  }
};

/// Median of a sample (percentile 50); 0 when empty.
inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

}  // namespace perfbench
