// Cycle-accurate linear-array matrix multiplication on the structural FP
// units — the kernel the paper uses to evaluate its cores (Section 4.2).
#pragma once

#include <optional>
#include <vector>

#include "kernel/pe.hpp"
#include "kernel/schedule.hpp"

namespace flopsim::kernel {

/// Dense row-major matrix of operand encodings in a shared format.
struct Matrix {
  int n = 0;
  std::vector<fp::u64> bits;  // n*n, row-major

  static Matrix zero(int n, fp::FpFormat fmt);
  fp::u64& at(int r, int c) { return bits[static_cast<std::size_t>(r) * n + c]; }
  const fp::u64& at(int r, int c) const {
    return bits[static_cast<std::size_t>(r) * n + c];
  }
};

/// Build a matrix from doubles (rounded into fmt under the paper env).
Matrix matrix_from_doubles(const std::vector<double>& vals, int n,
                           fp::FpFormat fmt);

struct MatmulRun {
  Matrix c;
  Schedule schedule;
  long cycles = 0;
  long mac_issues = 0;     ///< across all PEs, incl. padding
  long padded_issues = 0;  ///< zero-padded MACs (wasted)
  long hazards = 0;
  std::uint8_t flags = 0;  ///< accumulated FP exception flags
};

/// PE j's MAC issue at array cycle t: PE j runs j cycles behind PE 0 (the
/// systolic skew) through the padded (k, i) loop, and rows i >= n issue
/// zero operands. nullopt outside PE j's issue window. The one schedule
/// definition LinearArrayMatmul::run and MatmulReplay both step PEs by.
std::optional<ProcessingElement::MacIssue> scheduled_issue(
    const Schedule& sched, const Matrix& a, const Matrix& b, int j, long t);

class LinearArrayMatmul {
 public:
  /// Array of p = n PEs (one C column each). One PE is built; the others
  /// are its clones, sharing its units' chains.
  LinearArrayMatmul(int n, const PeConfig& cfg);

  /// Compute C = C0 + A*B cycle-by-cycle on the array. C0 defaults to zero;
  /// passing an accumulator matrix is how block decomposition chains block
  /// products. Throws std::runtime_error on a RAW hazard unless the
  /// schedule padding covers the latency (it always does with the default
  /// threshold).
  MatmulRun run(const Matrix& a, const Matrix& b,
                const Matrix* c0 = nullptr);

  /// Override the padding threshold (default: PL = Lmul + Ladd, the paper's
  /// rule). Used by tests to demonstrate the hazard window.
  void set_pad_threshold(int pl) { pad_override_ = pl; }
  /// With an override, hazards are counted instead of thrown.
  bool pad_overridden() const { return pad_override_ >= 0; }

  /// The schedule run() follows: PL padding, or the override.
  Schedule schedule() const;
  /// Clocks run() steps: n issue phases, the skew across the array and the
  /// pipeline drain.
  long cycles() const;
  /// The product as the PEs hold it once each has stepped its whole
  /// schedule: C read out through each PE's ECC path, the flags OR-ed, and
  /// run()'s drain and hazard guards applied.
  MatmulRun result() const;

  /// A fresh array with the same geometry and PE configuration (pad
  /// override included) — one replica per campaign worker. Its PEs are
  /// clones (ProcessingElement::clone), so no unit chain is rebuilt.
  LinearArrayMatmul clone() const;

  int n() const { return n_; }
  const ProcessingElement& pe(int j) const {
    return pes_[static_cast<std::size_t>(j)];
  }
  /// Mutable access for fault-hook attachment (see src/fault/).
  ProcessingElement& pe(int j) { return pes_[static_cast<std::size_t>(j)]; }

 private:
  /// n clones of `proto`.
  LinearArrayMatmul(int n, const PeConfig& cfg, const ProcessingElement& proto);

  int n_;
  PeConfig cfg_;
  std::vector<ProcessingElement> pes_;
  int pad_override_ = -1;
};

/// One accumulate of a golden pass: the row it reads and writes back, its
/// clocks (ProcessingElement::accumulate_clocks), the consuming unit's
/// input (the word the read returned sits in `b` beside the product in
/// `a`; fused MAC: in `c` beside the operands), the product's flags, and
/// the result with its flags and the check byte stored with it.
struct AccumulateOp {
  // Ordered to pack: a trial's finisher streams through these.
  ProcessingElement::AccumulateClocks clocks;
  units::UnitInput input;
  fp::u64 result = 0;
  int row = 0;
  std::uint8_t product_flags = 0;  ///< raised at the read (split PE only)
  std::uint8_t result_flags = 0;   ///< raised at the write-back
  std::uint8_t result_check = 0;   ///< stored with it (0 without ECC)
};

/// Single-PE replay of the array's product, the kernel SEU fast path. PE j
/// reads only a(i, k), b(k, j) and its own state, so its share of a full
/// array run is one accumulate per scheduled issue: the product through
/// the multiplier (split PE), the read of the row, which sees the
/// write-backs of earlier clocks only, and the sum through the adder or
/// the fused MAC back into the row. record() computes that golden pass
/// by walking each accumulate through its units (run_accumulate) and logs
/// it (AccumulateOp); nothing here steps a PE.
///
/// A trial walks only the accumulates its fault can reach, through the
/// caller's fault observer, so the fault layer alone decides what a
/// strike does:
///  * accumulator_upset() rebuilds PE j's bank after the strike clock from
///    the log and hands it to the observer as step() would;
///  * unit_upset() walks each accumulate whose stay in the struck unit
///    overlaps the fault's active clocks through the observer; one that
///    read its row before the fault could act keeps its golden read.
/// The finisher takes what changed (rows, products, sums), re-walks the
/// accumulates that read a changed row, in each row's read and write-back
/// order, and takes everything else from the log. Its verdict is a full
/// array run's by construction.
///
/// A walk that leaves its unit invalid drops its accumulate: a stepped PE
/// keeps the row tag queued and never drains, so, as result() does, the
/// walk throws std::logic_error("LinearArrayMatmul: pipeline not
/// drained").
class MatmulReplay {
 public:
  /// Replays of `array`'s product a * b (C0 = 0). Borrows all three; they
  /// must outlive the replay.
  MatmulReplay(LinearArrayMatmul& array, const Matrix& a, const Matrix& b);

  /// Golden pass of PE j, leaving the array's own PE as run() leaves it.
  /// Calls for distinct j touch disjoint state and may run on different
  /// threads. Once every PE is recorded the array holds what run(a, b)
  /// leaves, and LinearArrayMatmul::result() returns the clean product.
  void record(int j);

  struct Verdict {
    bool corrupted = false;  ///< C or the array's flags differ from golden
    long ecc_corrections = 0;  ///< PE j's counters after the readout
    long ecc_detections = 0;
  };

  /// PE j's flags after golden clock `cycle` (0 <= cycle < the run's
  /// cycles).
  std::uint8_t flags_after(int j, long cycle) const;

  /// An accumulator upset that `observer` (the caller's fault injector)
  /// makes in PE j's bank at the end of clock `cycle` and on no other
  /// clock. The observer is handed PE j's golden bank after that clock as
  /// step() hands it over — the data words, then the check bytes when the
  /// bank has them — cut to the rows the schedule reads (a strike
  /// elsewhere is never read back). The finisher answers from the rows
  /// the observer changed. Thread-safe on distinct observers once every
  /// PE is recorded.
  Verdict accumulator_upset(int j, long cycle,
                            StorageObserver& observer) const;

  /// A latch or configuration upset that `observer` makes in PE j's
  /// `unit` on clocks [first_active, last_active] and no others. A bubble
  /// no accumulate occupies is never walked: a flip that revives one is
  /// not followed. Thread-safe on distinct observers once every PE is
  /// recorded.
  Verdict unit_upset(int j, PeUnit unit, long first_active, long last_active,
                     rtl::LatchObserver& observer) const;

 private:
  /// A row whose stored word or check byte may differ from the golden
  /// run's.
  struct RowWord {
    int row = 0;
    fp::u64 data = 0;
    std::uint8_t check = 0;
  };
  /// A unit upset as the finisher walks it.
  struct UnitStrike {
    PeUnit unit;
    long first = 0;
    long last = 0;
    rtl::LatchObserver* observer = nullptr;
  };
  struct Golden {
    std::vector<AccumulateOp> ops;  // every accumulate, in issue order
    std::vector<std::uint8_t> flags_after;  // PE flags after each clock
    std::vector<fp::u64> column;  // C(:, j) as read out
    std::uint8_t flags = 0;
  };

  /// The finisher: PE j from clock t on, given that up to t it equals the
  /// golden PE except in `rows`, and that from t on `strike` (if any)
  /// acts on it.
  Verdict finish(int j, long t, std::vector<RowWord> rows,
                 const UnitStrike* strike) const;
  /// Whether PE j ending with `flags`, the other PEs with their golden
  /// flags, leaves the array's flags other than the clean run's.
  bool flags_differ(int j, std::uint8_t flags) const;

  LinearArrayMatmul& array_;
  const Matrix& a_;
  const Matrix& b_;
  Schedule sched_;
  long cycles_;
  std::vector<Golden> golden_;  // per PE
};

/// Reference GEMM with the same arithmetic and accumulation order as the
/// array (k ascending), under the paper env: the array must match this
/// bit-for-bit.
Matrix reference_gemm(const Matrix& a, const Matrix& b, fp::FpFormat fmt,
                      fp::RoundingMode rounding, const Matrix* c0 = nullptr);

/// Reference for fused-MAC PEs: acc = fma(a, b, acc) per k, single
/// rounding per accumulate.
Matrix reference_gemm_fused(const Matrix& a, const Matrix& b,
                            fp::FpFormat fmt, fp::RoundingMode rounding,
                            const Matrix* c0 = nullptr);

}  // namespace flopsim::kernel
