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

/// What a run whose PE never drains ends in.
[[noreturn]] void throw_not_drained() {
  throw std::logic_error("LinearArrayMatmul: pipeline not drained");
}

/// A walk's output. One that leaves its unit invalid has dropped its
/// accumulate, whose row tag a stepped PE keeps queued: that PE never
/// drains.
units::UnitOutput walked(const std::optional<units::UnitOutput>& out) {
  if (!out) throw_not_drained();
  return *out;
}

}  // namespace

LinearArrayMatmul::LinearArrayMatmul(int n, const PeConfig& cfg)
    : n_(n), cfg_(cfg) {
  const ProcessingElement proto = first_pe(n, cfg);
  pes_.reserve(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) pes_.push_back(proto.clone());
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
  for (int j = 0; j < n_; ++j) {
    run_pe(pes_[static_cast<std::size_t>(j)], j, a, b, c0);
  }
  return result();
}

void LinearArrayMatmul::run_pe(ProcessingElement& pe, int j, const Matrix& a,
                               const Matrix& b, const Matrix* c0) const {
  if (a.n != n_ || b.n != n_ || (c0 != nullptr && c0->n != n_)) {
    throw std::invalid_argument("LinearArrayMatmul: operand size mismatch");
  }
  pe.clear();
  if (c0 != nullptr) {
    for (int i = 0; i < n_; ++i) pe.set_acc(i, c0->at(i, j));
  }
  const Schedule sched = schedule();
  const long total = cycles();
  for (long t = 0; t < total; ++t) pe.step(scheduled_issue(sched, a, b, j, t));
}

LinearArrayMatmul::PeReadout LinearArrayMatmul::readout(
    const ProcessingElement& pe) const {
  if (!pe.drained()) throw_not_drained();
  if (pe.hazards() > 0 && !pad_overridden()) {
    throw std::runtime_error(
        "LinearArrayMatmul: RAW hazard despite default padding");
  }
  PeReadout r;
  r.column.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) r.column.push_back(pe.acc(i));
  r.flags = pe.flags();
  r.hazards = pe.hazards();
  return r;
}

MatmulRun LinearArrayMatmul::result() const {
  MatmulRun run;
  run.schedule = schedule();
  run.cycles = cycles();
  run.mac_issues = n_ * run.schedule.issues_per_pe();
  run.padded_issues = n_ * run.schedule.padded_issues_per_pe();
  run.c = Matrix::zero(n_, cfg_.fmt);
  for (int j = 0; j < n_; ++j) {
    const PeReadout pe = readout(pes_[static_cast<std::size_t>(j)]);
    run.hazards += pe.hazards;
    run.flags |= pe.flags;
    for (int i = 0; i < n_; ++i) {
      run.c.at(i, j) = pe.column[static_cast<std::size_t>(i)];
    }
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
  g = Golden{};
  pe.clear();
  const bool fused = pe.config().use_fused_mac;
  const bool ecc = pe.config().ecc_accumulators;
  const units::FpUnit& mult = pe.multiplier();
  const units::FpUnit& unit = pe.accumulator_unit();
  const long issues = sched_.issues_per_pe();

  std::vector<fp::u64> bank(static_cast<std::size_t>(sched_.n_eff), 0);
  std::vector<std::uint8_t> raised(static_cast<std::size_t>(cycles_), 0);
  long hazards = 0;
  std::size_t landed = 0;  // ops whose write-back is in `bank`
  const auto land = [&](long read) {
    for (; landed < g.ops.size() &&
           ProcessingElement::read_sees(read, g.ops[landed].clocks.writeback);
         ++landed) {
      bank[static_cast<std::size_t>(g.ops[landed].row)] =
          g.ops[landed].result;
    }
  };
  g.ops.reserve(static_cast<std::size_t>(issues));
  for (long k = 0; k < issues; ++k) {
    const ProcessingElement::MacIssue issue =
        *scheduled_issue(sched_, a_, b_, j, j + k);
    AccumulateOp op;
    op.row = issue.row;
    op.clocks = pe.accumulate_clocks(j + k);
    op.input = {issue.a, issue.b, false};
    if (!fused) {
      const units::UnitOutput product =
          walked(run_accumulate(mult.pieces(), mult.plan(), op.input));
      op.input = {product.result, 0, false};
      op.product_flags = product.flags;
    }
    // A write-back of the row that the read does not see is still
    // pending: a RAW hazard, counted as step() counts it.
    land(op.clocks.read);
    if (std::any_of(g.ops.begin() + static_cast<std::ptrdiff_t>(landed),
                    g.ops.end(),
                    [&op](const AccumulateOp& x) { return x.row == op.row; })) {
      ++hazards;
    }
    (fused ? op.input.c : op.input.b) =
        bank[static_cast<std::size_t>(op.row)];
    const units::UnitOutput sum =
        walked(run_accumulate(unit.pieces(), unit.plan(), op.input));
    op.result = sum.result;
    op.result_flags = sum.flags;
    if (ecc) op.result_check = fault::secded_encode(op.result);
    raised[static_cast<std::size_t>(op.clocks.read)] |= op.product_flags;
    raised[static_cast<std::size_t>(op.clocks.writeback)] |= op.result_flags;
    g.ops.push_back(op);
  }
  land(cycles_);
  g.flags_after.resize(raised.size());
  std::uint8_t flags = 0;
  for (std::size_t c = 0; c < raised.size(); ++c) {
    flags |= raised[c];
    g.flags_after[c] = flags;
  }
  g.column.assign(bank.begin(), bank.begin() + sched_.n);
  g.flags = flags;

  // What run() leaves: every pipeline drained, each stage of the units
  // step() drives having latched every accumulate once, the counters at
  // their totals and each row holding its last write-back.
  ProcessingElement::State s = pe.save(sched_.n_eff);
  const std::size_t driven_begin = fused ? 2 : 0;  // {mult, adder, mac}
  for (std::size_t u = driven_begin; u < driven_begin + (fused ? 1 : 2);
       ++u) {
    s.units[u].valid_cycles.assign(s.units[u].valid_cycles.size(), issues);
    s.units[u].cycles = cycles_;
  }
  s.acc = bank;
  if (ecc) {
    std::ranges::transform(bank, s.acc_check.begin(), fault::secded_encode);
  }
  s.mac_issues = issues;
  s.hazards = hazards;
  s.cycles = cycles_;
  s.flags = flags;
  pe.restore(s);
}

std::uint8_t MatmulReplay::flags_after(int j, long cycle) const {
  return golden_.at(static_cast<std::size_t>(j))
      .flags_after.at(static_cast<std::size_t>(cycle));
}

bool MatmulReplay::flags_differ(int j, std::uint8_t flags) const {
  std::uint8_t clean = 0;
  for (std::size_t k = 0; k < golden_.size(); ++k) {
    clean |= golden_[k].flags;
    if (k != static_cast<std::size_t>(j)) flags |= golden_[k].flags;
  }
  return flags != clean;
}

MatmulReplay::Verdict MatmulReplay::accumulator_upset(
    int j, long cycle, StorageObserver& observer) const {
  const Golden& g = golden_.at(static_cast<std::size_t>(j));
  // The PE never runs that clock, so the observer never sees the bank:
  // the golden verdict (a golden pass reads only clean words, so its ECC
  // counters are 0).
  if (cycle < 0 || cycle >= cycles_) return Verdict{};
  // PE j's golden bank after clock `cycle`, what a read on the next clock
  // sees, from the log. The schedule issues to each row once per phase, so
  // the last n_eff write-backs up to that clock hold every written row's
  // word. The observer strikes a copy, as step() hands it the bank: data
  // words, then check bytes when the bank has them.
  const bool ecc = array_.pe(j).config().ecc_accumulators;
  const auto rows = static_cast<std::size_t>(sched_.n_eff);
  std::vector<fp::u64> acc(rows, 0);
  std::vector<std::uint8_t> check(ecc ? rows : 0, fault::secded_encode(0));
  const auto end = std::partition_point(
      g.ops.begin(), g.ops.end(), [cycle](const AccumulateOp& op) {
        return ProcessingElement::read_sees(cycle + 1, op.clocks.writeback);
      });
  for (auto op = end - std::min(end - g.ops.begin(),
                                static_cast<std::ptrdiff_t>(rows));
       op != end; ++op) {
    acc[static_cast<std::size_t>(op->row)] = op->result;
    if (ecc) check[static_cast<std::size_t>(op->row)] = op->result_check;
  }
  std::vector<fp::u64> struck = acc;
  std::vector<std::uint8_t> struck_check = check;
  observer.on_storage(cycle, struck);
  if (ecc) observer.on_check_bits(cycle, struck_check);
  std::vector<RowWord> changed;
  for (std::size_t r = 0; r < rows; ++r) {
    if (struck[r] != acc[r] || (ecc && struck_check[r] != check[r])) {
      changed.push_back({static_cast<int>(r), struck[r],
                         ecc ? struck_check[r] : std::uint8_t{0}});
    }
  }
  return finish(j, cycle + 1, std::move(changed), nullptr);
}

MatmulReplay::Verdict MatmulReplay::unit_upset(
    int j, PeUnit unit, long first_active, long last_active,
    rtl::LatchObserver& observer) const {
  const long first = std::max(first_active, 0L);
  if (first >= cycles_ || last_active < first) return Verdict{};
  const UnitStrike strike{unit, first, last_active, &observer};
  return finish(j, first, {}, &strike);
}

MatmulReplay::Verdict MatmulReplay::finish(
    int j, long t, std::vector<RowWord> rows, const UnitStrike* strike) const {
  const Golden& g = golden_.at(static_cast<std::size_t>(j));
  const ProcessingElement& golden_pe = array_.pe(j);
  const bool ecc = golden_pe.config().ecc_accumulators;
  const bool fused = golden_pe.config().use_fused_mac;
  const units::FpUnit& mult = golden_pe.multiplier();
  const units::FpUnit& unit = golden_pe.accumulator_unit();
  // The unit the strike acts in (the fused PE steps neither), and whether
  // a pass through it on clocks [entry, exit] overlaps the clocks it is
  // active on.
  const units::FpUnit* struck = nullptr;
  if (strike != nullptr && !fused) {
    struck = strike->unit == PeUnit::kMultiplier ? &mult : &unit;
  }
  const auto reached = [&](const units::FpUnit& u, long entry, long exit) {
    return struck == &u && entry <= strike->last && exit >= strike->first;
  };

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
  state.reserve(rows.size() + 1);
  for (const RowWord& w : rows) state.push_back({w, {}});
  // Land every pending write-back of `r` that a read on clock `read` sees.
  const auto land = [ecc](Row& r, long read) {
    std::size_t k = 0;
    for (; k < r.pending.size() &&
           ProcessingElement::read_sees(read, r.pending[k].cycle);
         ++k) {
      r.word.data = r.pending[k].result;
      if (ecc) r.word.check = fault::secded_encode(r.word.data);
    }
    r.pending.erase(r.pending.begin(),
                    r.pending.begin() + static_cast<std::ptrdiff_t>(k));
  };
  using OpIt = std::vector<AccumulateOp>::const_iterator;
  // A row that first differs at `op`'s write-back: until then it holds
  // what op read, and the write-backs in flight at that read land on it
  // first. Those are golden, or the row would differ already.
  const auto diverging = [&](OpIt op) {
    const fp::u64 read = fused ? op->input.c : op->input.b;
    Row r{{op->row, read, ecc ? fault::secded_encode(read) : std::uint8_t{0}},
          {}};
    OpIt m = op;
    while (m != g.ops.begin() &&
           !ProcessingElement::read_sees(op->clocks.read,
                                         std::prev(m)->clocks.writeback)) {
      --m;
    }
    for (; m != op; ++m) {
      if (m->row == op->row) {
        r.pending.push_back({m->clocks.writeback, m->result});
      }
    }
    return r;
  };

  // Every accumulate not yet written back at t, in issue order. Those
  // that read before t keep their golden reads; products never depend on
  // the bank. An accumulate walks through the strike where its pass
  // overlaps it, walks again where its input changed, and is taken from
  // the log otherwise.
  std::uint8_t flags =
      t > 0 ? g.flags_after[static_cast<std::size_t>(t - 1)] : 0;
  // Golden reads see only clean words: the ECC counters start at 0.
  long corrections = 0;
  long detections = 0;
  const OpIt first = std::partition_point(
      g.ops.begin(), g.ops.end(), [t](const AccumulateOp& op) {
        return ProcessingElement::read_sees(t, op.clocks.writeback);
      });
  for (OpIt op = first; op != g.ops.end(); ++op) {
    const ProcessingElement::AccumulateClocks& at = op->clocks;
    const bool read_after = at.read >= t;
    units::UnitInput in = op->input;
    bool changed = false;
    std::uint8_t product_flags = op->product_flags;
    if (reached(mult, at.issue, at.read)) {
      const ProcessingElement::MacIssue operands =
          *scheduled_issue(sched_, a_, b_, j, at.issue);
      const units::UnitOutput product = walked(
          run_accumulate(mult.pieces(), mult.plan(),
                         {operands.a, operands.b, false}, at.issue,
                         strike->observer));
      changed = product.result != in.a;
      in.a = product.result;
      product_flags = product.flags;
    }
    if (read_after) flags |= product_flags;

    Row* row = nullptr;
    for (Row& r : state) {
      if (r.word.row == op->row) row = &r;
    }
    if (row != nullptr && read_after) {
      land(*row, at.read);
      const fp::u64 read = ecc ? ecc_read(row->word.data, row->word.check,
                                          corrections, detections)
                               : row->word.data;
      fp::u64& slot = fused ? in.c : in.b;
      changed |= read != slot;
      slot = read;
    }
    units::UnitOutput out{op->result, op->result_flags};
    if (reached(unit, at.entry, at.writeback)) {
      out = walked(run_accumulate(unit.pieces(), unit.plan(), in, at.entry,
                                  strike->observer));
    } else if (changed) {
      out = walked(run_accumulate(unit.pieces(), unit.plan(), in));
    }
    flags |= out.flags;
    if (row == nullptr && out.result != op->result) {
      row = &state.emplace_back(diverging(op));
    }
    if (row != nullptr) {
      row->pending.push_back({at.writeback, out.result});
    }
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
