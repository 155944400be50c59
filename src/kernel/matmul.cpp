#include "kernel/matmul.hpp"

#include <algorithm>
#include <stdexcept>

#include "fault/secded.hpp"
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

namespace {

/// The array's first PE: built at cfg, its storage widened to cover the
/// padded row range. Every PE of an array is a clone of it.
ProcessingElement first_pe(int n, const PeConfig& cfg) {
  if (n <= 0) throw std::invalid_argument("LinearArrayMatmul: n must be > 0");
  const ProcessingElement probe(cfg);
  return probe.clone(
      std::max(cfg.storage_rows, n + probe.total_latency() + 8));
}

}  // namespace

LinearArrayMatmul::LinearArrayMatmul(int n, const PeConfig& cfg)
    : LinearArrayMatmul(n, cfg, first_pe(n, cfg)) {}

LinearArrayMatmul::LinearArrayMatmul(int n, const PeConfig& cfg,
                                     const ProcessingElement& proto)
    : n_(n), cfg_(cfg) {
  pes_.reserve(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) pes_.push_back(proto.clone());
}

LinearArrayMatmul LinearArrayMatmul::clone() const {
  LinearArrayMatmul copy(n_, cfg_, pes_[0]);
  copy.pad_override_ = pad_override_;
  return copy;
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
  g.flags_after.assign(static_cast<std::size_t>(cycles_), 0);
  AccumulateLog log;
  log.ops.reserve(static_cast<std::size_t>(sched_.issues_per_pe()));
  struct Detach {
    ProcessingElement& pe;
    ~Detach() { pe.set_accumulate_log(nullptr); }
  } detach{pe};
  pe.set_accumulate_log(&log);
  // Snapshots keep only the rows the schedule issues to: the ones a run
  // reads. Anything a fault flips elsewhere is never read back.
  for (long t = 0; t < cycles_; ++t) {
    if (t % kSnapshotInterval == 0) {
      g.snapshots.push_back(pe.save(sched_.n_eff));
    }
    pe.step(scheduled_issue(sched_, a_, b_, j, t));
    g.flags_after[static_cast<std::size_t>(t)] = pe.flags();
  }
  g.ops = std::move(log.ops);
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
    // final plus what this trial has counted beyond the snapshot. A PE
    // whose pipelines alone equal the golden ones goes to the finisher
    // with the rows that still differ.
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
      if (pe.matches_pipelines(snap)) {
        std::vector<RowWord> rows;
        for (std::size_t r = 0; r < snap.acc.size(); ++r) {
          const int row = static_cast<int>(r);
          const RowWord w{row, pe.stored_word(row), pe.stored_check(row)};
          if (w.data != snap.acc[r] ||
              (!snap.acc_check.empty() && w.check != snap.acc_check[r])) {
            rows.push_back(w);
          }
        }
        if (auto done = finish(j, t, std::move(rows), pe.flags(),
                               pe.ecc_corrections(), pe.ecc_detections())) {
          done->cycles_stepped = t - start;
          return *done;
        }
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
  v.corrupted = flags_differ(j, pe.flags());
  for (int i = 0; i < sched_.n; ++i) {
    // Read every row: each read runs the ECC corrector, as in result().
    v.corrupted |= pe.acc(i) != g.column[static_cast<std::size_t>(i)];
  }
  v.ecc_corrections = pe.ecc_corrections();
  v.ecc_detections = pe.ecc_detections();
  return v;
}

bool MatmulReplay::flags_differ(int j, std::uint8_t flags) const {
  std::uint8_t clean = 0;
  for (std::size_t k = 0; k < golden_.size(); ++k) {
    clean |= golden_[k].flags;
    if (k != static_cast<std::size_t>(j)) flags |= golden_[k].flags;
  }
  return flags != clean;
}

std::optional<MatmulReplay::Verdict> MatmulReplay::accumulator_upset(
    int j, long cycle, StorageObserver& observer) const {
  const Golden& g = golden_.at(static_cast<std::size_t>(j));
  if (cycle < 0 || cycle >= cycles_) {
    // The PE never runs that clock, so the observer never sees the bank.
    Verdict v;
    v.ecc_corrections = g.ecc_corrections;
    v.ecc_detections = g.ecc_detections;
    return v;
  }
  // PE j's golden bank after clock `cycle`: the snapshot at or before it
  // plus the write-backs since. The observer strikes a copy, as step()
  // hands it the bank: data words, then check bytes when the bank has
  // them.
  const ProcessingElement::State& snap =
      g.snapshots[static_cast<std::size_t>(cycle / kSnapshotInterval)];
  std::vector<fp::u64> acc = snap.acc;
  std::vector<std::uint8_t> check = snap.acc_check;
  const bool ecc = array_.pe(j).config().ecc_accumulators;
  auto op = std::partition_point(
      g.ops.begin(), g.ops.end(), [&snap](const AccumulateOp& x) {
        return x.writeback_cycle < snap.cycles;
      });
  for (; op != g.ops.end() && op->writeback_cycle <= cycle; ++op) {
    acc[static_cast<std::size_t>(op->row)] = op->result;
    if (ecc) check[static_cast<std::size_t>(op->row)] = op->result_check;
  }
  std::vector<fp::u64> struck = acc;
  std::vector<std::uint8_t> struck_check = check;
  observer.on_storage(cycle, struck);
  if (ecc) observer.on_check_bits(cycle, struck_check);
  std::vector<RowWord> rows;
  for (std::size_t r = 0; r < acc.size(); ++r) {
    if (struck[r] != acc[r] || (ecc && struck_check[r] != check[r])) {
      rows.push_back(
          {static_cast<int>(r), struck[r], ecc ? struck_check[r] : 0});
    }
  }
  // The golden pass runs unobserved, so its corrector never fires: the
  // counters at the strike are 0, like every golden read's contribution.
  auto v = finish(j, cycle + 1, std::move(rows),
                  g.flags_after[static_cast<std::size_t>(cycle)], 0, 0);
  if (v) v->cycles_stepped = 0;
  return v;
}

std::optional<MatmulReplay::Verdict> MatmulReplay::finish(
    int j, long t, std::vector<RowWord> rows, std::uint8_t flags,
    long corrections, long detections) const {
  const Golden& g = golden_.at(static_cast<std::size_t>(j));
  const ProcessingElement& golden_pe = array_.pe(j);
  const bool ecc = golden_pe.config().ecc_accumulators;
  const bool fused = golden_pe.config().use_fused_mac;
  const units::FpUnit& unit = golden_pe.accumulator_unit();

  // Per differing row: its word now, and the write-backs whose value is
  // known but whose clock is still ahead, in write-back order.
  struct Pending {
    long cycle;
    fp::u64 result;
  };
  struct Row {
    RowWord word;
    std::vector<Pending> pending;
  };
  std::vector<Row> state;
  state.reserve(rows.size());
  for (const RowWord& w : rows) state.push_back({w, {}});
  // Land every pending write-back of `r` before clock `before`: a read at
  // clock c sees the write-backs of earlier clocks only (step() reads
  // before it writes back).
  const auto land = [ecc](Row& r, long before) {
    std::size_t k = 0;
    for (; k < r.pending.size() && r.pending[k].cycle < before; ++k) {
      r.word.data = r.pending[k].result;
      if (ecc) r.word.check = fault::secded_encode(r.word.data);
    }
    r.pending.erase(r.pending.begin(),
                    r.pending.begin() + static_cast<std::ptrdiff_t>(k));
  };

  // Every accumulate not yet written back at t, in issue order. Those
  // that read before t are in flight in pipelines equal to the golden
  // ones, so they write back the golden sum; so does every accumulate of
  // a row that does not differ. Products never depend on the bank.
  const auto first = std::partition_point(
      g.ops.begin(), g.ops.end(),
      [t](const AccumulateOp& op) { return op.writeback_cycle < t; });
  for (auto op = first; op != g.ops.end(); ++op) {
    if (op->read_cycle >= t) flags |= op->product_flags;
    const auto r = std::find_if(state.begin(), state.end(), [&](const Row& x) {
      return x.word.row == op->row;
    });
    if (r == state.end() || op->read_cycle < t) {
      flags |= op->result_flags;
      if (r != state.end()) {
        r->pending.push_back({op->writeback_cycle, op->result});
      }
      continue;
    }
    land(*r, op->read_cycle);
    const fp::u64 read =
        ecc ? ecc_read(r->word.data, r->word.check, corrections, detections)
            : r->word.data;
    units::UnitInput in = op->input;
    (fused ? in.c : in.b) = read;
    const std::optional<units::UnitOutput> out =
        run_accumulate(unit.pieces(), unit.plan(), in);
    if (!out) return std::nullopt;  // no write-back: the golden log ends
    flags |= out->flags;
    r->pending.push_back({op->writeback_cycle, out->result});
  }

  // The readout, as in result(): the differing rows below n through the
  // corrector; every other row holds its golden word.
  Verdict v;
  v.corrupted = flags_differ(j, flags);
  for (Row& r : state) {
    land(r, cycles_);
    if (r.word.row >= sched_.n) continue;
    const fp::u64 word =
        ecc ? ecc_read(r.word.data, r.word.check, corrections, detections)
            : r.word.data;
    v.corrupted |= word != g.column[static_cast<std::size_t>(r.word.row)];
  }
  v.ecc_corrections = corrections;
  v.ecc_detections = detections;
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
