#include "lint/absint.hpp"

#include <algorithm>
#include <deque>
#include <sstream>

#include "lint/probe.hpp"

namespace flopsim::lint {

using fp::i64;
using fp::u64;
using rtl::kMaxSignals;
using rtl::SemOp;
using Kind = rtl::SemOp::Kind;

namespace {

using i128 = __int128;

/// Effective-width bound of the largest value in [0, hi] (hi >= 0).
int width_of_nonneg(i64 hi) {
  return hi <= 0 ? (hi == 0 ? 0 : 64) : fp::msb_index64(static_cast<u64>(hi)) + 1;
}

/// Clamp an i128 back into the i64 interval domain. Wrapping 64-bit
/// arithmetic can leave the representable range, in which case nothing
/// about the bit pattern's signed reading survives: full interval.
bool clamp128(i128 lo, i128 hi, i64& out_lo, i64& out_hi) {
  if (lo < INT64_MIN || hi > INT64_MAX) return false;
  out_lo = static_cast<i64>(lo);
  out_hi = static_cast<i64>(hi);
  return true;
}

AbsVal top_val() {
  AbsVal v;
  v.defined = true;
  return v;
}

}  // namespace

AbsVal AbsVal::constant(u64 v) {
  AbsVal r;
  r.kmask = ~u64{0};
  r.kval = v;
  r.lo = static_cast<i64>(v);
  r.hi = static_cast<i64>(v);
  r.defined = true;
  return r;
}

AbsVal AbsVal::any(int width) {
  AbsVal r;
  r.defined = true;
  if (width >= 64) return r;  // full top
  if (width < 0) width = 0;
  r.kmask = ~fp::mask64(width);
  r.kval = 0;
  r.lo = 0;
  r.hi = static_cast<i64>(fp::mask64(width));
  return r;
}

AbsVal AbsVal::any_signed(int width) {
  AbsVal r;
  r.defined = true;
  if (width >= 64) return r;
  if (width <= 0) return constant(0);
  // Values in [-2^(w-1), 2^(w-1) - 1]; the sign run above bit w-1 is one
  // of two patterns, so no individual high bit is known.
  r.lo = -(i64{1} << (width - 1));
  r.hi = (i64{1} << (width - 1)) - 1;
  return r;
}

bool AbsVal::contains(u64 v) const {
  if (!defined) return false;
  if ((v & kmask) != kval) return false;
  const i64 s = static_cast<i64>(v);
  return s >= lo && s <= hi;
}

u64 AbsVal::possible_bits() const {
  if (!defined) return 0;
  u64 pb = ~kmask | kval;
  if (lo >= 0) pb &= fp::mask64(width_of_nonneg(hi));
  return pb;
}

int AbsVal::width_bound() const {
  if (!defined) return 0;
  // Interval endpoints dominate: effective_width is monotone away from
  // zero in both directions, so the max over [lo, hi] is at an endpoint.
  int w = std::max(effective_width(static_cast<u64>(lo)),
                   effective_width(static_cast<u64>(hi)));
  // Known-zero top bits tighten the unsigned reading.
  if ((kmask >> 63) & 1) {
    if ((kval >> 63) == 0) {
      const u64 umax = kval | ~kmask;
      w = std::min(w, umax == 0 ? 0 : fp::msb_index64(umax) + 1);
    }
  }
  return w;
}

void AbsVal::canonicalize() {
  if (!defined) return;
  kval &= kmask;
  // Interval from known bits, when the sign bit is decided (the unsigned
  // order then agrees with the signed order within the set).
  if ((kmask >> 63) & 1) {
    const i64 umin = static_cast<i64>(kval);
    const i64 umax = static_cast<i64>(kval | ~kmask);
    lo = std::max(lo, umin);
    hi = std::min(hi, umax);
  }
  // Known bits from a non-negative interval: everything above hi's msb is
  // zero.
  if (lo >= 0) {
    const u64 zmask = ~fp::mask64(width_of_nonneg(hi));
    kmask |= zmask;
    kval &= ~zmask;
  }
  if (lo == hi) {
    kmask = ~u64{0};
    kval = static_cast<u64>(lo);
  }
  if (lo > hi) hi = lo;  // infeasible guard path; stay defined and sound
}

AbsVal absval_join(const AbsVal& a, const AbsVal& b) {
  if (!a.defined) return b;
  if (!b.defined) return a;
  AbsVal r;
  r.defined = true;
  r.kmask = a.kmask & b.kmask & ~(a.kval ^ b.kval);
  r.kval = a.kval & r.kmask;
  r.lo = std::min(a.lo, b.lo);
  r.hi = std::max(a.hi, b.hi);
  r.canonicalize();
  return r;
}

AbsVal absval_widen(const AbsVal& prev, const AbsVal& next) {
  if (!prev.defined) return next;
  if (!next.defined) return prev;
  AbsVal r = absval_join(prev, next);
  // Interval thresholds: jump to the next rung instead of creeping.
  static constexpr i64 kLoRungs[] = {0, -1, -(i64{1} << 8), -(i64{1} << 16),
                                     -(i64{1} << 32), INT64_MIN};
  static constexpr i64 kHiRungs[] = {0, 1, (i64{1} << 8), (i64{1} << 16),
                                     (i64{1} << 32), INT64_MAX};
  if (r.lo < prev.lo) {
    for (i64 rung : kLoRungs) {
      if (rung <= r.lo) {
        r.lo = rung;
        break;
      }
    }
  }
  if (r.hi > prev.hi) {
    for (i64 rung : kHiRungs) {
      if (rung >= r.hi) {
        r.hi = rung;
        break;
      }
    }
  }
  r.canonicalize();
  return r;
}

AbsState absstate_join(const AbsState& a, const AbsState& b) {
  if (!a.reachable) return b;
  if (!b.reachable) return a;
  AbsState r;
  r.reachable = true;
  for (int l = 0; l < kMaxSignals; ++l) {
    const auto idx = static_cast<std::size_t>(l);
    r.lane[idx] = absval_join(a.lane[idx], b.lane[idx]);
  }
  return r;
}

namespace {

AbsState absstate_widen(const AbsState& prev, const AbsState& next) {
  if (!prev.reachable) return next;
  if (!next.reachable) return prev;
  AbsState r;
  r.reachable = true;
  for (int l = 0; l < kMaxSignals; ++l) {
    const auto idx = static_cast<std::size_t>(l);
    r.lane[idx] = absval_widen(prev.lane[idx], next.lane[idx]);
  }
  return r;
}

bool absstate_equal(const AbsState& a, const AbsState& b) {
  if (a.reachable != b.reachable) return false;
  for (int l = 0; l < kMaxSignals; ++l) {
    const auto idx = static_cast<std::size_t>(l);
    if (!(a.lane[idx] == b.lane[idx])) return false;
  }
  return true;
}

AbsVal lane_or_top(const AbsState& s, int lane) {
  if (lane < 0 || lane >= kMaxSignals) return top_val();
  const AbsVal& v = s.lane[static_cast<std::size_t>(lane)];
  return v.defined ? v : top_val();
}

/// Second operand of a binary op: lane b, or an immediate constant.
AbsVal operand_b(const SemOp& op, const AbsState& s, bool arith) {
  if (op.b >= 0) return lane_or_top(s, op.b);
  return AbsVal::constant(arith ? op.imm2 : op.imm);
}

/// Known-bits ripple addition/subtraction: sum bits are known from the
/// LSB up while both operand bits and the incoming carry are known.
void known_bits_addsub(const AbsVal& a, const AbsVal& b, bool subtract,
                       AbsVal& r) {
  const u64 bval = subtract ? ~b.kval : b.kval;
  u64 carry = subtract ? 1 : 0;
  bool carry_known = true;
  u64 kmask = 0;
  u64 kval = 0;
  for (int bit = 0; bit < 64 && carry_known; ++bit) {
    const u64 m = u64{1} << bit;
    if (!(a.kmask & m) || !(b.kmask & m)) break;
    const u64 ab = (a.kval & m) != 0 ? 1 : 0;
    const u64 bb = (bval & m) != 0 ? 1 : 0;
    const u64 sum = ab + bb + carry;
    kmask |= m;
    if ((sum & 1) != 0) kval |= m;
    carry = sum >> 1;
  }
  r.kmask |= kmask;
  r.kval = (r.kval & ~kmask) | kval;
}

/// Truncate a result to a physical width (models the hardware register /
/// adder slice). Returns true when a value above the width was reachable
/// (the carry/overflow the hardware would drop).
bool truncate_to_width(AbsVal& r, int width) {
  if (width >= 64 || width <= 0) return false;
  const u64 mask = fp::mask64(width);
  const bool overflow_reachable =
      r.lo < 0 || static_cast<u64>(r.hi) > mask || (r.possible_bits() & ~mask) != 0;
  if (overflow_reachable) {
    // Post-truncation nothing survives of the interval.
    AbsVal t;
    t.defined = true;
    t.kmask = (r.kmask & mask) | ~mask;
    t.kval = r.kval & mask;
    t.lo = 0;
    t.hi = static_cast<i64>(mask);
    r = t;
    r.canonicalize();
  }
  return overflow_reachable;
}

struct TransferNotes {
  bool carry_truncated = false;  ///< a kAdd/kSub/kMul overflowed its width
  bool fired_known = false;      ///< guard was decidable
  bool fired = true;             ///< op executed (when guard decidable)
};

/// Evaluate an op's guard against the state: 1 = executes, 0 = skipped,
/// -1 = undecidable.
int guard_decides(const SemOp& op, const AbsState& s) {
  if (op.cond < 0) return 1;
  const AbsVal c = lane_or_top(s, op.cond);
  const u64 m = u64{1} << op.cond_bit;
  if (!(c.kmask & m)) return -1;
  const bool set = (c.kval & m) != 0;
  return (set != op.cond_neg) ? 1 : 0;
}

void transfer_ex(const SemOp& op, AbsState& s, TransferNotes* notes) {
  if (op.kind == Kind::kNop || op.kind == Kind::kRead ||
      op.kind == Kind::kFlags) {
    return;
  }
  const int fire = guard_decides(op, s);
  if (notes != nullptr) {
    notes->fired_known = fire >= 0;
    notes->fired = fire != 0;
  }
  if (fire == 0) return;
  if (op.dst < 0 || op.dst >= kMaxSignals) return;
  const auto dst = static_cast<std::size_t>(op.dst);

  AbsVal r = top_val();
  switch (op.kind) {
    case Kind::kConst:
      r = AbsVal::constant(op.imm);
      break;
    case Kind::kCopy:
      r = lane_or_top(s, op.a);
      break;
    case Kind::kHavoc:
      r = AbsVal::any(static_cast<int>(op.imm));
      break;
    case Kind::kHavocSigned:
      r = AbsVal::any_signed(static_cast<int>(op.imm));
      break;
    case Kind::kAnd: {
      const AbsVal a = lane_or_top(s, op.a);
      const AbsVal b = operand_b(op, s, /*arith=*/false);
      const u64 k0 = (a.kmask & ~a.kval) | (b.kmask & ~b.kval);
      const u64 k1 = (a.kmask & a.kval) & (b.kmask & b.kval);
      r.kmask = k0 | k1;
      r.kval = k1;
      if (a.lo >= 0 || b.lo >= 0) {
        r.lo = 0;
        r.hi = a.lo >= 0 && b.lo >= 0 ? std::min(a.hi, b.hi)
                                      : (a.lo >= 0 ? a.hi : b.hi);
      }
      r.canonicalize();
      break;
    }
    case Kind::kOr: {
      const AbsVal a = lane_or_top(s, op.a);
      const AbsVal b = operand_b(op, s, /*arith=*/false);
      const u64 k1 = (a.kmask & a.kval) | (b.kmask & b.kval);
      const u64 k0 = (a.kmask & ~a.kval) & (b.kmask & ~b.kval);
      r.kmask = k0 | k1;
      r.kval = k1;
      if (a.lo >= 0 && b.lo >= 0) {
        r.lo = std::max(a.lo, b.lo);
        r.hi = static_cast<i64>(
            fp::mask64(std::max(width_of_nonneg(a.hi), width_of_nonneg(b.hi))));
      }
      r.canonicalize();
      break;
    }
    case Kind::kXor: {
      const AbsVal a = lane_or_top(s, op.a);
      const AbsVal b = operand_b(op, s, /*arith=*/false);
      r.kmask = a.kmask & b.kmask;
      r.kval = (a.kval ^ b.kval) & r.kmask;
      if (a.lo >= 0 && b.lo >= 0) {
        r.lo = 0;
        r.hi = static_cast<i64>(
            fp::mask64(std::max(width_of_nonneg(a.hi), width_of_nonneg(b.hi))));
      }
      r.canonicalize();
      break;
    }
    case Kind::kShlImm: {
      const AbsVal a = lane_or_top(s, op.a);
      const int d = static_cast<int>(op.imm) & 63;
      r.kmask = (a.kmask << d) | fp::mask64(d);
      r.kval = a.kval << d;
      i64 nlo = 0;
      i64 nhi = 0;
      if (a.lo >= 0 &&
          clamp128(static_cast<i128>(a.lo) << d, static_cast<i128>(a.hi) << d,
                   nlo, nhi)) {
        r.lo = nlo;
        r.hi = nhi;
      }
      r.canonicalize();
      break;
    }
    case Kind::kShrImm:
    case Kind::kShrJamImm: {
      const AbsVal a = lane_or_top(s, op.a);
      const int d = static_cast<int>(op.imm) & 63;
      r.kmask = (a.kmask >> d) | ~fp::mask64(64 - d);
      r.kval = a.kval >> d;
      if (a.lo >= 0) {
        r.lo = a.lo >> d;
        r.hi = a.hi >> d;
      } else {
        // Logical shift of a possibly-negative pattern: high bits unknown
        // beyond the shifted-in zeros.
        r.lo = 0;
        r.hi = static_cast<i64>(fp::mask64(64 - d));
      }
      if (op.kind == Kind::kShrJamImm && d > 0) {
        const u64 out_bits = fp::mask64(d);
        if ((a.kmask & out_bits) == out_bits) {
          const u64 jam = (a.kval & out_bits) != 0 ? 1 : 0;
          r.kval = (r.kval & ~u64{1}) | ((r.kval | jam) & 1);
          if (jam != 0 && r.hi >= 0) r.hi |= 1;
        } else {
          r.kmask &= ~u64{1};
          r.kval &= ~u64{1};
          if (r.hi >= 0) r.hi |= 1;
        }
      }
      r.canonicalize();
      break;
    }
    case Kind::kShlVar: {
      const AbsVal a = lane_or_top(s, op.a);
      const AbsVal d = lane_or_top(s, op.b);
      const int dmax = static_cast<int>(
          std::min<u64>(op.imm, d.lo >= 0 ? static_cast<u64>(d.hi) : op.imm));
      if (a.lo >= 0) {
        r = AbsVal::any(std::min(64, width_of_nonneg(a.hi) + dmax));
        r.lo = 0;
      }
      r.canonicalize();
      break;
    }
    case Kind::kShrVar:
    case Kind::kShrJamVar: {
      const AbsVal a = lane_or_top(s, op.a);
      if (a.lo >= 0) {
        // A (jamming) right shift never increases the value.
        r.lo = 0;
        r.hi = a.hi;
      }
      r.canonicalize();
      break;
    }
    case Kind::kAdd:
    case Kind::kSub: {
      const AbsVal a = lane_or_top(s, op.a);
      const AbsVal b = operand_b(op, s, /*arith=*/true);
      const bool sub = op.kind == Kind::kSub;
      i64 nlo = 0;
      i64 nhi = 0;
      const i128 slo = sub ? static_cast<i128>(a.lo) - b.hi
                           : static_cast<i128>(a.lo) + b.lo;
      const i128 shi = sub ? static_cast<i128>(a.hi) - b.lo
                           : static_cast<i128>(a.hi) + b.hi;
      if (clamp128(slo, shi, nlo, nhi)) {
        r.lo = nlo;
        r.hi = nhi;
      }
      known_bits_addsub(a, b, sub, r);
      r.canonicalize();
      const bool truncated = truncate_to_width(r, static_cast<int>(op.imm));
      if (truncated && notes != nullptr) notes->carry_truncated = true;
      break;
    }
    case Kind::kMul: {
      const AbsVal a = lane_or_top(s, op.a);
      const AbsVal b = operand_b(op, s, /*arith=*/true);
      if (a.is_constant() && b.is_constant()) {
        r = AbsVal::constant(a.constant_value() * b.constant_value());
      } else if (a.lo >= 0 && b.lo >= 0) {
        i64 nlo = 0;
        i64 nhi = 0;
        if (clamp128(static_cast<i128>(a.lo) * b.lo,
                     static_cast<i128>(a.hi) * b.hi, nlo, nhi)) {
          r.lo = nlo;
          r.hi = nhi;
        } else {
          // Partial-product width bound: wa + wb bits.
          const int w = width_of_nonneg(a.hi) + width_of_nonneg(b.hi);
          r = AbsVal::any(std::min(64, w));
        }
      }
      r.canonicalize();
      const bool truncated = truncate_to_width(r, static_cast<int>(op.imm));
      if (truncated && notes != nullptr) notes->carry_truncated = true;
      break;
    }
    case Kind::kSelect: {
      const int sel = guard_decides(
          [&] {
            SemOp g = op;
            g.cond_neg = false;
            return g;
          }(),
          s);
      if (sel == 1) {
        r = lane_or_top(s, op.a);
      } else if (sel == 0) {
        r = lane_or_top(s, op.b);
      } else {
        r = absval_join(lane_or_top(s, op.a), lane_or_top(s, op.b));
      }
      break;
    }
    case Kind::kCmp:
      r = AbsVal::any(1);
      break;
    case Kind::kNop:
    case Kind::kRead:
    case Kind::kFlags:
      break;
  }

  if (fire < 0) {
    // Guard undecided: the write may not happen.
    r = absval_join(r, s.lane[dst]);
  }
  s.lane[dst] = r;
}

}  // namespace

void absint_transfer(const SemOp& op, AbsState& state) {
  transfer_ex(op, state, nullptr);
}

SolveResult absint_solve(const AbsProgram& program, const AbsState& entry,
                         int widen_after) {
  const std::size_t n = program.nodes.size();
  SolveResult res;
  res.in.assign(n, AbsState{});
  res.out.assign(n, AbsState{});
  std::vector<int> joins(n, 0);
  std::vector<char> queued(n, 0);
  std::deque<int> worklist;
  if (program.entry >= 0 && program.entry < static_cast<int>(n)) {
    res.in[static_cast<std::size_t>(program.entry)] = entry;
    res.in[static_cast<std::size_t>(program.entry)].reachable = true;
    worklist.push_back(program.entry);
    queued[static_cast<std::size_t>(program.entry)] = 1;
  }
  // Far above anything a real chain needs; widening guarantees each lane
  // climbs a finite lattice, so this cap only guards a broken caller.
  constexpr int kMaxIterations = 100000;
  while (!worklist.empty() && res.iterations < kMaxIterations) {
    const int i = worklist.front();
    worklist.pop_front();
    queued[static_cast<std::size_t>(i)] = 0;
    ++res.iterations;
    const auto idx = static_cast<std::size_t>(i);
    AbsState out = res.in[idx];
    if (out.reachable) {
      for (const SemOp& op : program.nodes[idx].ops) {
        transfer_ex(op, out, nullptr);
      }
    }
    res.out[idx] = out;
    if (!out.reachable) continue;
    for (int succ : program.nodes[idx].succ) {
      if (succ < 0 || succ >= static_cast<int>(n)) continue;
      const auto sidx = static_cast<std::size_t>(succ);
      AbsState next = absstate_join(res.in[sidx], out);
      if (joins[sidx] >= widen_after) {
        next = absstate_widen(res.in[sidx], next);
      }
      if (!absstate_equal(next, res.in[sidx])) {
        res.in[sidx] = next;
        ++joins[sidx];
        if (queued[sidx] == 0) {
          worklist.push_back(succ);
          queued[sidx] = 1;
        }
      }
    }
  }
  return res;
}

namespace {

/// Backward demanded-bits transfer for one op. `demand` maps lanes to the
/// bits downstream can observe.
void demand_transfer(const SemOp& op, std::array<u64, kMaxSignals>& demand) {
  const auto D = [&demand](int lane) -> u64& {
    static u64 scratch = 0;
    if (lane < 0 || lane >= kMaxSignals) {
      scratch = 0;
      return scratch;
    }
    return demand[static_cast<std::size_t>(lane)];
  };
  if (op.kind == Kind::kNop) return;
  if (op.kind == Kind::kRead) {
    D(op.a) = ~u64{0};
    return;
  }
  if (op.kind == Kind::kFlags) {
    if (op.a >= 0) D(op.a) = ~u64{0};
    return;
  }
  const u64 d = D(op.dst);
  const bool conditional = op.cond >= 0;
  if (!conditional) D(op.dst) = 0;  // unconditional write kills the demand
  if (d == 0) return;
  if (conditional) D(op.cond) |= u64{1} << op.cond_bit;
  const u64 all_low = d == 0 ? 0 : fp::mask64(fp::msb_index64(d) + 1);
  switch (op.kind) {
    case Kind::kConst:
    case Kind::kHavoc:
    case Kind::kHavocSigned:
      break;
    case Kind::kCopy:
      D(op.a) |= d;
      break;
    case Kind::kAnd:
      D(op.a) |= op.b >= 0 ? d : (d & op.imm);
      if (op.b >= 0) D(op.b) |= d;
      break;
    case Kind::kOr:
    case Kind::kXor:
      D(op.a) |= d;
      if (op.b >= 0) D(op.b) |= d;
      break;
    case Kind::kShlImm:
      D(op.a) |= d >> (op.imm & 63);
      break;
    case Kind::kShrImm:
      D(op.a) |= d << (op.imm & 63);
      break;
    case Kind::kShrJamImm:
      D(op.a) |= (d << (op.imm & 63)) |
                 ((d & 1) != 0 ? fp::mask64(static_cast<int>(op.imm & 63)) : 0);
      break;
    case Kind::kShlVar:
    case Kind::kShrVar:
    case Kind::kShrJamVar:
      // Unknown distance smears any demanded bit across the lane.
      D(op.a) |= ~u64{0};
      D(op.b) |= fp::mask64(7);
      break;
    case Kind::kAdd:
    case Kind::kSub:
    case Kind::kMul:
      // Carries: every source bit at or below the highest demanded bit.
      D(op.a) |= all_low;
      if (op.b >= 0) D(op.b) |= all_low;
      break;
    case Kind::kSelect:
      D(op.a) |= d;
      D(op.b) |= d;
      D(op.cond) |= u64{1} << op.cond_bit;
      break;
    case Kind::kCmp:
      D(op.a) |= ~u64{0};
      if (op.b >= 0) D(op.b) |= ~u64{0};
      break;
    case Kind::kNop:
    case Kind::kRead:
    case Kind::kFlags:
      break;
  }
}

Finding absint_finding(const char* rule, const std::string& subject,
                       const rtl::PieceChain& chain, int piece,
                       std::string message) {
  const RuleInfo* info = find_rule(rule);
  Finding f;
  f.rule = rule;
  f.severity = info != nullptr ? info->severity : Severity::kError;
  f.subject = subject;
  f.piece = piece;
  if (piece >= 0 && piece < static_cast<int>(chain.size())) {
    f.piece_name = chain[static_cast<std::size_t>(piece)].name;
  }
  f.message = std::move(message);
  return f;
}

/// Width witness contributed by one concrete value under a demand mask:
/// the sign-aware effective width, never wider than the value itself (a
/// demand mask can strip a sign run but never adds storage cost).
int masked_witness_width(u64 value, u64 demand) {
  return std::min(effective_width(value), effective_width(value & demand));
}

}  // namespace

ChainAbsint analyze_chain(const rtl::PieceChain& chain,
                          const ChainContract& contract, const Options& opts) {
  ChainAbsint res;
  const std::size_t n = chain.size();
  res.piece_unreachable.assign(n, false);
  if (n == 0) return res;
  res.annotated =
      std::all_of(chain.begin(), chain.end(),
                  [](const rtl::Piece& p) { return !p.sem.empty(); });
  if (!res.annotated || contract.stimuli.empty()) return res;
  const std::string& subject = contract.name;

  // ---- forward fixpoint over the linear chain graph -----------------------
  AbsProgram program;
  program.nodes.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    program.nodes[p].ops = chain[p].sem;
    if (p + 1 < n) program.nodes[p].succ.push_back(static_cast<int>(p + 1));
  }
  AbsState entry;
  entry.reachable = true;
  for (std::size_t i = 0; i < contract.input_lanes.size(); ++i) {
    const int lane = contract.input_lanes[i];
    if (lane < 0 || lane >= kMaxSignals) continue;
    const int width = i < contract.input_widths.size()
                          ? contract.input_widths[i]
                          : 64;
    entry.lane[static_cast<std::size_t>(lane)] = AbsVal::any(width);
  }
  const SolveResult solved = absint_solve(program, entry);

  // ---- per-op reachability + carry-truncation findings --------------------
  for (std::size_t p = 0; p < n; ++p) {
    AbsState s = solved.in[p];
    bool any_semantic = false;
    bool any_enabled = false;
    int op_index = 0;
    for (const SemOp& op : chain[p].sem) {
      TransferNotes notes;
      transfer_ex(op, s, &notes);
      const bool semantic = op.kind != Kind::kNop && op.kind != Kind::kRead &&
                            op.kind != Kind::kFlags;
      if (semantic) {
        any_semantic = true;
        if (!notes.fired_known || notes.fired) any_enabled = true;
        if (notes.fired_known && !notes.fired && op.cond >= 0) {
          // Individually disabled ops are only reported when the whole
          // piece is dead code; a piece mixing live and provably-disabled
          // ops is normal mux structure.
        }
        if (notes.carry_truncated) {
          std::ostringstream msg;
          msg << "sem op " << op_index << " ("
              << (op.kind == Kind::kMul ? "mul" : "add/sub")
              << ") can overflow its declared " << op.imm
              << "-bit physical width: the carry/overflow out of lane "
              << static_cast<int>(op.dst)
              << " is reachable and truncated";
          Finding f =
              absint_finding("DL405", subject, chain, static_cast<int>(p),
                             msg.str());
          f.lane = op.dst;
          res.findings.add(f);
        }
      }
      ++op_index;
    }
    if (any_semantic && !any_enabled) {
      res.piece_unreachable[p] = true;
      res.findings.add(absint_finding(
          "DL404", subject, chain, static_cast<int>(p),
          "every semantic op is provably disabled by its guard: the piece "
          "is unreachable dead code"));
    }
  }

  // ---- backward demanded bits --------------------------------------------
  std::vector<std::array<u64, kMaxSignals>> boundary_demand(n);
  std::array<u64, kMaxSignals> demand{};
  if (contract.result_lane >= 0 && contract.result_lane < kMaxSignals) {
    demand[static_cast<std::size_t>(contract.result_lane)] = ~u64{0};
  }
  for (std::size_t rp = n; rp-- > 0;) {
    boundary_demand[rp] = demand;
    const rtl::SemProgram& ops = chain[rp].sem;
    for (std::size_t oi = ops.size(); oi-- > 0;) {
      demand_transfer(ops[oi], demand);
    }
  }

  // ---- concrete replay: containment self-check + witness widths -----------
  std::array<bool, kMaxSignals> is_input{};
  for (int l : contract.input_lanes) {
    if (l >= 0 && l < kMaxSignals) is_input[static_cast<std::size_t>(l)] = true;
  }
  std::vector<std::array<int, kMaxSignals>> witness(n, std::array<int, kMaxSignals>{});
  std::vector<std::array<bool, kMaxSignals>> seen(
      n, std::array<bool, kMaxSignals>{});
  int containment_errors = 0;
  for (std::size_t v = 0; v < contract.stimuli.size(); ++v) {
    rtl::SignalSet state;
    for (int l = 0; l < kMaxSignals; ++l) {
      // The probe's poison pattern, so conditional behavior matches what
      // the def-use inference observed.
      state.lane[static_cast<std::size_t>(l)] =
          u64{0x9E3779B97F4A7C15} * static_cast<u64>(l + 3) ^
          (opts.seed + 0xD1B54A32D192ED03 * v);
    }
    std::array<bool, kMaxSignals> defined = is_input;
    for (int l : contract.input_lanes) {
      if (l >= 0 && l < kMaxSignals) {
        state.lane[static_cast<std::size_t>(l)] =
            contract.stimuli[v].lane[static_cast<std::size_t>(l)];
      }
    }
    state.valid = true;
    state.flags = 0;
    for (std::size_t p = 0; p < n; ++p) {
      const rtl::SignalSet pre = state;
      chain[p].eval(state);
      for (int l = 0; l < kMaxSignals; ++l) {
        const auto idx = static_cast<std::size_t>(l);
        if (state.lane[idx] != pre.lane[idx]) defined[idx] = true;
        if (!defined[idx]) continue;
        const u64 value = state.lane[idx];
        ++res.containment_checks;
        const AbsVal& av = solved.out[p].lane[idx];
        if (!av.contains(value) && containment_errors < 8) {
          ++containment_errors;
          std::ostringstream msg;
          msg << "stimulus " << v << " left lane " << l << " = 0x" << std::hex
              << value << std::dec
              << " outside the abstract state (known-bits mask 0x" << std::hex
              << av.kmask << " value 0x" << av.kval << std::dec
              << ", interval [" << av.lo << ", " << av.hi << "]"
              << (av.defined ? "" : ", undefined")
              << "): the piece's sem annotation under-approximates its eval";
          Finding f = absint_finding("DL400", subject, chain,
                                     static_cast<int>(p), msg.str());
          f.lane = l;
          res.findings.add(f);
        }
        seen[p][idx] = true;
        witness[p][idx] = std::max(
            witness[p][idx],
            masked_witness_width(value, boundary_demand[p][idx]));
      }
    }
  }

  // ---- boundary summaries --------------------------------------------------
  for (std::size_t b = 0; b < n; ++b) {
    const bool final_boundary = b + 1 == n;
    if (!final_boundary && !chain[b].cut_after) continue;
    BoundaryBounds bb;
    bb.boundary = static_cast<int>(b);
    bb.final_boundary = final_boundary;
    for (int l = 0; l < kMaxSignals; ++l) {
      const auto idx = static_cast<std::size_t>(l);
      const AbsVal& av = solved.out[b].lane[idx];
      if (!av.defined) continue;
      const u64 d = final_boundary
                        ? (l == contract.result_lane ? ~u64{0} : 0)
                        : boundary_demand[b][idx];
      if (d == 0) {
        // Defined but undemanded: recorded so DL403 can name it, with no
        // width contribution.
        if (!final_boundary) {
          LaneBound lb;
          lb.lane = l;
          lb.demand = 0;
          bb.lanes.push_back(lb);
        }
        continue;
      }
      LaneBound lb;
      lb.lane = l;
      lb.demand = d;
      // possible_bits is a bit-set, not a value: its width is the unsigned
      // msb reading (the signed effective_width of an all-ones mask would
      // collapse to 1).
      const u64 pb = av.possible_bits() & d;
      lb.upper = std::min(av.width_bound(),
                          pb == 0 ? 0 : fp::msb_index64(pb) + 1);
      lb.lower = seen[b][idx] ? std::min(witness[b][idx], lb.upper) : 0;
      lb.constant = av.is_constant();
      lb.constant_value = av.constant_value();
      bb.upper += lb.upper;
      bb.lower += lb.lower;
      bb.lanes.push_back(lb);
    }
    res.boundaries.push_back(std::move(bb));
  }
  return res;
}

}  // namespace flopsim::lint
