#include "kernel/matmul.hpp"

#include <algorithm>
#include <stdexcept>

#include "fp/ops.hpp"

namespace flopsim::kernel {

Matrix Matrix::zero(int n, fp::FpFormat fmt) {
  (void)fmt;  // all-zero encoding is +0 in every format
  Matrix m;
  m.n = n;
  m.bits.assign(static_cast<std::size_t>(n) * n, 0);
  return m;
}

Matrix matrix_from_doubles(const std::vector<double>& vals, int n,
                           fp::FpFormat fmt) {
  if (static_cast<int>(vals.size()) != n * n) {
    throw std::invalid_argument("matrix_from_doubles: size mismatch");
  }
  Matrix m = Matrix::zero(n, fmt);
  fp::FpEnv env = fp::FpEnv::paper();
  for (std::size_t i = 0; i < vals.size(); ++i) {
    m.bits[i] = fp::from_double(vals[i], fmt, env).bits;
  }
  return m;
}

LinearArrayMatmul::LinearArrayMatmul(int n, const PeConfig& cfg)
    : n_(n), cfg_(cfg) {
  if (n <= 0) throw std::invalid_argument("LinearArrayMatmul: n must be > 0");
  PeConfig pe_cfg = cfg;
  // Storage must cover the padded row range.
  const ProcessingElement probe(pe_cfg);
  pe_cfg.storage_rows =
      std::max(cfg.storage_rows, n + probe.total_latency() + 8);
  pes_.reserve(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) pes_.emplace_back(pe_cfg);
}

std::optional<ProcessingElement::MacIssue> scheduled_issue(
    const Schedule& sched, const Matrix& a, const Matrix& b, int j, long t) {
  const long tj = t - j;  // systolic skew: PE j runs j cycles behind
  if (tj < 0 || tj >= sched.issues_per_pe()) return std::nullopt;
  const int k = static_cast<int>(tj / sched.n_eff);
  const int i = static_cast<int>(tj % sched.n_eff);
  // Zero padding: the unit computes 0*0 + acc_pad — real switching, wasted
  // work (the paper's Section 5 energy-waste source).
  if (i >= sched.n) return ProcessingElement::MacIssue{0, 0, i};
  return ProcessingElement::MacIssue{a.at(i, k), b.at(k, j), i};
}

Schedule LinearArrayMatmul::schedule() const {
  return make_schedule(
      n_, pad_override_ >= 0 ? pad_override_ : pes_[0].total_latency());
}

long LinearArrayMatmul::cycles() const {
  // The drain is the real latency, whatever the padding threshold.
  return schedule().issues_per_pe() + (n_ - 1) + pes_[0].total_latency() + 1;
}

MatmulRun LinearArrayMatmul::run(const Matrix& a, const Matrix& b,
                                 const Matrix* c0) {
  if (a.n != n_ || b.n != n_ || (c0 != nullptr && c0->n != n_)) {
    throw std::invalid_argument("LinearArrayMatmul: operand size mismatch");
  }
  const Schedule sched = schedule();
  for (int j = 0; j < n_; ++j) {
    pes_[static_cast<std::size_t>(j)].clear();
    if (c0 != nullptr) {
      for (int i = 0; i < n_; ++i) {
        pes_[static_cast<std::size_t>(j)].set_acc(i, c0->at(i, j));
      }
    }
  }
  const long total = cycles();
  for (long t = 0; t < total; ++t) {
    for (int j = 0; j < n_; ++j) {
      pes_[static_cast<std::size_t>(j)].step(
          scheduled_issue(sched, a, b, j, t));
    }
  }
  return result();
}

MatmulRun LinearArrayMatmul::result() const {
  MatmulRun run;
  run.schedule = schedule();
  run.cycles = cycles();
  run.mac_issues = n_ * run.schedule.issues_per_pe();
  run.padded_issues = n_ * run.schedule.padded_issues_per_pe();
  run.c = Matrix::zero(n_, cfg_.fmt);
  for (int j = 0; j < n_; ++j) {
    const ProcessingElement& pe = pes_[static_cast<std::size_t>(j)];
    if (!pe.drained()) {
      throw std::logic_error("LinearArrayMatmul: pipeline not drained");
    }
    run.hazards += pe.hazards();
    run.flags |= pe.flags();
    for (int i = 0; i < n_; ++i) run.c.at(i, j) = pe.acc(i);
  }
  if (run.hazards > 0 && !pad_overridden()) {
    throw std::runtime_error(
        "LinearArrayMatmul: RAW hazard despite default padding");
  }
  return run;
}

MatmulReplay::MatmulReplay(LinearArrayMatmul& array, const Matrix& a,
                           const Matrix& b)
    : array_(array),
      a_(a),
      b_(b),
      sched_(array.schedule()),
      cycles_(array.cycles()),
      golden_(static_cast<std::size_t>(array.n())) {
  if (a.n != array.n() || b.n != array.n()) {
    throw std::invalid_argument("MatmulReplay: operand size mismatch");
  }
}

void MatmulReplay::record(int j) {
  ProcessingElement& pe = array_.pe(j);
  Golden& g = golden_.at(static_cast<std::size_t>(j));
  pe.clear();
  g.snapshots.clear();
  // Snapshots keep only the rows the schedule issues to: the ones a run
  // reads. Anything a fault flips elsewhere is never read back.
  for (long t = 0; t < cycles_; ++t) {
    if (t % kSnapshotInterval == 0) {
      g.snapshots.push_back(pe.save(sched_.n_eff));
    }
    pe.step(scheduled_issue(sched_, a_, b_, j, t));
  }
  g.column.resize(static_cast<std::size_t>(sched_.n));
  for (int i = 0; i < sched_.n; ++i) {
    g.column[static_cast<std::size_t>(i)] = pe.acc(i);
  }
  g.flags = pe.flags();
  g.ecc_corrections = pe.ecc_corrections();
  g.ecc_detections = pe.ecc_detections();
}

MatmulReplay::Verdict MatmulReplay::replay(ProcessingElement& pe, int j,
                                           long first_active,
                                           long last_active) const {
  const Golden& g = golden_.at(static_cast<std::size_t>(j));
  const std::size_t from =
      std::min(static_cast<std::size_t>(std::max(first_active, 0L) /
                                        kSnapshotInterval),
               g.snapshots.size() - 1);
  const long start = static_cast<long>(from) * kSnapshotInterval;
  pe.restore(g.snapshots[from]);
  Verdict v;
  for (long t = start; t < cycles_; ++t) {
    // Past the fault's last active cycle, a datapath equal to the golden
    // one evolves exactly as the golden run did, so the output is the
    // golden one. The ECC counters stay out of the comparison (step()
    // never reads them), so a repaired trial rejoins too; from here each
    // counter gains what the golden run gains, which puts it at the golden
    // final plus what this trial has counted beyond the snapshot.
    if (t > last_active && t % kSnapshotInterval == 0) {
      const ProcessingElement::State& snap =
          g.snapshots[static_cast<std::size_t>(t / kSnapshotInterval)];
      if (pe.matches_datapath(snap)) {
        v.ecc_corrections =
            g.ecc_corrections + (pe.ecc_corrections() - snap.ecc_corrections);
        v.ecc_detections =
            g.ecc_detections + (pe.ecc_detections() - snap.ecc_detections);
        v.cycles_stepped = t - start;
        return v;
      }
    }
    pe.step(scheduled_issue(sched_, a_, b_, j, t));
  }
  v.cycles_stepped = cycles_ - start;

  // Ran to the end: the same guards and readout as result(), for PE j.
  if (!pe.drained()) {
    throw std::logic_error("LinearArrayMatmul: pipeline not drained");
  }
  if (pe.hazards() > 0 && !array_.pad_overridden()) {
    throw std::runtime_error(
        "LinearArrayMatmul: RAW hazard despite default padding");
  }
  std::uint8_t flags = pe.flags();
  std::uint8_t clean_flags = 0;
  for (std::size_t k = 0; k < golden_.size(); ++k) {
    clean_flags |= golden_[k].flags;
    if (k != static_cast<std::size_t>(j)) flags |= golden_[k].flags;
  }
  v.corrupted = flags != clean_flags;
  for (int i = 0; i < sched_.n; ++i) {
    // Read every row: each read runs the ECC corrector, as in result().
    v.corrupted |= pe.acc(i) != g.column[static_cast<std::size_t>(i)];
  }
  v.ecc_corrections = pe.ecc_corrections();
  v.ecc_detections = pe.ecc_detections();
  return v;
}

Matrix reference_gemm(const Matrix& a, const Matrix& b, fp::FpFormat fmt,
                      fp::RoundingMode rounding, const Matrix* c0) {
  const int n = a.n;
  Matrix c = Matrix::zero(n, fmt);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      fp::FpEnv env = fp::FpEnv::paper(rounding);
      fp::FpValue acc(c0 != nullptr ? c0->at(i, j) : 0, fmt);
      for (int k = 0; k < n; ++k) {
        const fp::FpValue prod =
            fp::mul(fp::FpValue(a.at(i, k), fmt), fp::FpValue(b.at(k, j), fmt),
                    env);
        acc = fp::add(acc, prod, env);
      }
      c.at(i, j) = acc.bits;
    }
  }
  return c;
}

Matrix reference_gemm_fused(const Matrix& a, const Matrix& b,
                            fp::FpFormat fmt, fp::RoundingMode rounding,
                            const Matrix* c0) {
  const int n = a.n;
  Matrix c = Matrix::zero(n, fmt);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      fp::FpEnv env = fp::FpEnv::paper(rounding);
      fp::FpValue acc(c0 != nullptr ? c0->at(i, j) : 0, fmt);
      for (int k = 0; k < n; ++k) {
        acc = fp::fma(fp::FpValue(a.at(i, k), fmt),
                      fp::FpValue(b.at(k, j), fmt), acc, env);
      }
      c.at(i, j) = acc.bits;
    }
  }
  return c;
}

}  // namespace flopsim::kernel
