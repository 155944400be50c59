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

/// Single-PE replay of the array's product, the kernel SEU fast path. PE j
/// reads only a(i, k), b(k, j) and its own state, so stepping PE j alone
/// over its skewed schedule does exactly what a full array run does to
/// it. record() runs that golden pass for one PE, snapshots its whole
/// state every kSnapshotInterval cycles and logs every accumulate it
/// performs (AccumulateLog).
///
/// A trial ends one of three ways:
///  * rejoin — replay() re-runs one PE under a fault from the last
///    snapshot at or before it, and stops once the fault can no longer
///    act and the PE's datapath equals the golden snapshot for that cycle
///    (ProcessingElement::matches_datapath). The two ECC counters are left
///    out of that comparison, so a trial whose upset the corrector
///    repaired rejoins as well; its verdict reports each counter as the
///    golden final plus what the trial counted beyond the snapshot.
///  * finish — where the PE equals the golden one except in some
///    accumulator rows (data or check bytes), the flags and the ECC
///    counters (ProcessingElement::matches_pipelines), the PE will perform
///    exactly the golden accumulates from then on; only the ones that read
///    a differing row can compute something else. The finisher re-runs
///    just those, through the consuming unit's stages (run_accumulate) and
///    the PE's corrector (ecc_read), in each row's read and write-back
///    order, and takes everything else from the log. replay() hands over
///    to it at a snapshot boundary past the fault's last active cycle;
///    accumulator_upset() enters it at the strike, stepping nothing.
///  * the end — a fault that never stops acting (an unrepaired
///    configuration upset) steps to the last cycle.
/// All three give a full array run's verdict by construction.
class MatmulReplay {
 public:
  static constexpr long kSnapshotInterval = 16;

  /// Replays of `array`'s product a * b (C0 = 0). Borrows all three; they
  /// must outlive the replay.
  MatmulReplay(LinearArrayMatmul& array, const Matrix& a, const Matrix& b);

  /// Golden pass of PE j on the array's own PE. Calls for distinct j touch
  /// disjoint state and may run on different threads. Once every PE is
  /// recorded the array holds what run(a, b) leaves, and
  /// LinearArrayMatmul::result() returns the clean product.
  void record(int j);

  struct Verdict {
    bool corrupted = false;  ///< C or the array's flags differ from golden
    long ecc_corrections = 0;  ///< PE j's counters after the readout
    long ecc_detections = 0;
    long cycles_stepped = 0;  ///< from the resume snapshot; a rejoin or a
                              ///< finish stops short of the last cycle
  };
  /// Re-run PE j's share of the product on `pe`, a PE configured like the
  /// array's, with the fault observers the caller attached to it. The
  /// fault may change state only on cycles [first_active, last_active].
  /// Thread-safe on distinct `pe`s once every PE is recorded.
  Verdict replay(ProcessingElement& pe, int j, long first_active,
                 long last_active) const;

  /// An accumulator upset that `observer` (the caller's fault injector)
  /// makes in PE j's bank at the end of clock `cycle` and on no other
  /// clock. The observer is handed PE j's golden bank after that clock as
  /// step() hands it over — the data words, then the check bytes when the
  /// bank has them — cut to the rows the schedule reads, as the snapshots
  /// are (a strike elsewhere is never read back). The finisher answers
  /// from the rows the observer changed, stepping no PE (cycles_stepped
  /// is 0). nullopt when it cannot — a recomputed accumulate left its unit
  /// invalid; re-arm the observer and replay() the upset instead.
  /// Thread-safe on distinct observers once every PE is recorded.
  std::optional<Verdict> accumulator_upset(int j, long cycle,
                                           StorageObserver& observer) const;

 private:
  /// A row whose stored word or check byte may differ from the golden
  /// run's.
  struct RowWord {
    int row = 0;
    fp::u64 data = 0;
    std::uint8_t check = 0;
  };
  /// The finisher: PE j from clock t on, given that it equals the golden
  /// PE at t except in `rows`, the flags and the ECC counters.
  std::optional<Verdict> finish(int j, long t, std::vector<RowWord> rows,
                                std::uint8_t flags, long corrections,
                                long detections) const;
  /// Whether PE j ending with `flags`, the other PEs with their golden
  /// flags, leaves the array's flags other than the clean run's.
  bool flags_differ(int j, std::uint8_t flags) const;

  struct Golden {
    std::vector<ProcessingElement::State> snapshots;  // every interval
    std::vector<AccumulateOp> ops;  // every accumulate, in issue order
    std::vector<std::uint8_t> flags_after;  // PE flags after each clock
    std::vector<fp::u64> column;  // C(:, j) as read out
    std::uint8_t flags = 0;
    long ecc_corrections = 0;
    long ecc_detections = 0;
  };

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
