#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank =
      std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double tail_level(std::size_t n, bool* qualified) {
  // Levels in per-mille keep "samples beyond" exact integer arithmetic:
  // n * (1000 - level) / 1000 >= 10. The ladder stops at p99: a p99.9
  // with barely ten samples beyond it moves by a quarter between runs on
  // a shared machine, too loose for a regression bound.
  static constexpr long kLevels[] = {990, 950, 900, 750, 500};
  for (const long level : kLevels) {
    if (static_cast<long>(n) * (1000 - level) >= 10 * 1000) {
      if (qualified != nullptr) *qualified = true;
      return static_cast<double>(level) / 10.0;
    }
  }
  if (qualified != nullptr) *qualified = false;
  return 50.0;
}

Distribution summarize(const std::vector<double>& v) {
  Distribution d;
  d.n = v.size();
  if (v.empty()) return d;
  d.p50 = percentile(v, 50.0);
  d.p99 = percentile(v, 99.0);
  d.tail_level = tail_level(v.size(), &d.tail_qualified);
  d.tail = percentile(v, d.tail_level);
  return d;
}

ClosedLoop::ClosedLoop(int clients)
    : slots_(static_cast<std::size_t>(std::max(clients, 1))) {}

void ClosedLoop::sent(int c, double t_s) {
  Slot& s = slots_.at(static_cast<std::size_t>(c));
  if (s.in_flight) {
    throw std::logic_error(
        "closed loop violated: client sent with a request in flight");
  }
  s.in_flight = true;
  s.sent_at = t_s;
  if (s.first_sent < 0.0) s.first_sent = t_s;
  ++s.attempted;
}

void ClosedLoop::received(int c, double t_s, bool ok) {
  Slot& s = slots_.at(static_cast<std::size_t>(c));
  if (!s.in_flight) {
    throw std::logic_error(
        "closed loop violated: reply with no request in flight");
  }
  s.in_flight = false;
  s.last_reply = std::max(s.last_reply, t_s);
  if (ok) {
    ++s.completed;
    s.latency_us.push_back((t_s - s.sent_at) * 1e6);
  } else {
    ++s.failed;
  }
}

void ClosedLoop::lost(int c) {
  Slot& s = slots_.at(static_cast<std::size_t>(c));
  if (!s.in_flight) return;
  s.in_flight = false;
  ++s.failed;
}

ClosedLoop::Totals ClosedLoop::totals() const {
  Totals t;
  double first = -1.0;
  double last = -1.0;
  for (const Slot& s : slots_) {
    t.attempted += s.attempted;
    t.completed += s.completed;
    t.failed += s.failed;
    if (s.in_flight) ++t.outstanding;
    if (s.first_sent >= 0.0 && (first < 0.0 || s.first_sent < first)) {
      first = s.first_sent;
    }
    last = std::max(last, s.last_reply);
    t.latency_us.insert(t.latency_us.end(), s.latency_us.begin(),
                        s.latency_us.end());
  }
  if (first >= 0.0 && last > first) t.window_s = last - first;
  if (t.window_s > 0.0) {
    t.per_s = static_cast<double>(t.completed) / t.window_s;
  }
  return t;
}

long FailTally::failed() const {
  return std::min(bad_status + byte_mismatch + tally_mismatch + dropped,
                  attempted);
}

double FailTally::frac() const {
  return attempted > 0
             ? static_cast<double>(failed()) / static_cast<double>(attempted)
             : 0.0;
}

}  // namespace perfbench
